(** Job-level metrics: completion times, deadline misses, coflow
    (stage) completion times and straggler identification, aggregated
    over a run's jobs by {!Job_tracker}. *)

type stage_outcome = {
  label : string;
  flows : int;  (** Flows planned for the stage. *)
  injected_at : float option;
      (** When the stage's flows entered the run; [None] when an
          upstream failure (or the horizon) kept it from starting. *)
  finished_at : float option;
      (** When the stage's last flow reached a terminal state. *)
  clean : bool;
      (** Every flow completed (no termination / abort). *)
  cct : float option;
      (** Coflow completion time: [finished_at - injected_at], only
          for clean stages. *)
}

type job_outcome = {
  name : string;
  arrival : float;
  deadline : float option;  (** Relative to [arrival]. *)
  finished_at : float option;
      (** When the last flow of the last stage completed — only for
          jobs whose every stage finished cleanly. *)
  jct : float option;  (** [finished_at - arrival]. *)
  met_deadline : bool;
      (** Finished within the job deadline (vacuously [true] for a
          completed job without one, [false] for a failed or
          unfinished job). *)
  failed : bool;
      (** Some stage finished unclean: a constituent flow was
          terminated or aborted, so downstream stages were never
          injected. *)
  straggler : int option;
      (** The flow id whose terminal event finished the job — the
          flow to hand to {!Job_forensics} for attribution. *)
  stages : stage_outcome array;
}

type report = {
  jobs : job_outcome array;  (** In arrival (plan) order. *)
  completed : int;
  failed : int;
  unfinished : int;  (** The simulation ended mid-job. *)
  mean_jct : float;  (** Over completed jobs; 0 when none. *)
  max_jct : float;
  mean_stage_cct : float;  (** Over clean stages of all jobs. *)
  deadline_jobs : int;  (** Jobs carrying a deadline. *)
  deadline_met : int;
}

val of_outcomes : job_outcome array -> report

val summary : report -> string
(** One deterministic line. *)

val to_json : report -> string
(** Full report as one JSON object (jobs, stages, aggregates). *)

val pp : Format.formatter -> report -> unit
(** Human-readable per-job table plus the summary line. *)
