(** Declarative application-level jobs.

    A job is a DAG of {e stages}; each stage is a flow pattern
    (request fan-out, partition-aggregate fan-in, all-to-all shuffle,
    or a single pipeline transfer) whose flows are all injected
    together once every dependency stage has finished. A job finishes
    when the last flow of its last stage delivers its last byte — the
    application-level latency the paper's per-flow metrics cannot
    see.

    A job here is pure description: no hosts, no sizes drawn, no
    simulator state. {!Job_plan.compile} materializes it against a
    topology's host array and an {!Pdq_engine.Rng.t}, and
    {!Job_tracker} executes the plan at runtime over the telemetry
    bus. *)

type pattern =
  | Fan_out of { workers : int }
      (** The job's master sends one flow to each of [workers] workers
          (the request/partition half of partition-aggregate). *)
  | Fan_in of { workers : int }
      (** Each of [workers] workers sends one flow back to the master
          (the response/aggregate half; the stage completes when the
          {e last} response lands). *)
  | Shuffle of { mappers : int; reducers : int }
      (** All-to-all coflow: every mapper sends one flow to every
          reducer. Colocated mapper/reducer pairs exchange data
          locally and contribute no network flow. *)
  | Transfer
      (** One flow along the job's pipeline chain: the [k]-th
          [Transfer] stage of a job sends hop [k] → hop [k+1] of the
          chain drawn at compile time. *)

type stage = {
  label : string;
  pattern : pattern;
  sizes : Pdq_workload.Size_dist.t;  (** Per-flow size draw. *)
  deps : int list;
      (** Indices of stages that must finish before this one starts.
          Must all be smaller than this stage's own index, so a job is
          a DAG by construction. *)
}

type t = {
  name : string;
  stages : stage array;
  deadline : float option;
      (** Job-level deadline in seconds, relative to the job's
          arrival; propagated to stage and flow deadlines by
          {!stage_deadlines}. *)
}

val stage :
  ?label:string ->
  ?deps:int list ->
  sizes:Pdq_workload.Size_dist.t ->
  pattern ->
  stage
(** A stage with no dependencies unless [deps] says otherwise. *)

val make : ?deadline:float -> name:string -> stage list -> t
(** Validate and freeze a job. Raises [Invalid_argument] on an empty
    stage list, a dependency index that is not an earlier stage, a
    non-positive width, or a non-positive [deadline]. *)

(** {1 Canonical job shapes} *)

val partition_aggregate :
  ?deadline:float ->
  ?rounds:int ->
  name:string ->
  workers:int ->
  response_sizes:Pdq_workload.Size_dist.t ->
  unit ->
  t
(** [rounds] (default 1) repetitions of request fan-out (2 KB
    fixed-size requests) followed by response fan-in, each round
    depending on the previous — the canonical two-stage
    partition-aggregate query at [rounds = 1]. *)

val map_reduce :
  ?deadline:float ->
  ?rounds:int ->
  name:string ->
  mappers:int ->
  reducers:int ->
  shuffle_sizes:Pdq_workload.Size_dist.t ->
  output_sizes:Pdq_workload.Size_dist.t ->
  unit ->
  t
(** [rounds] (default 1) repetitions of an all-to-all shuffle followed
    by a reducer→master output fan-in. *)

val pipeline :
  ?deadline:float ->
  name:string ->
  depth:int ->
  sizes:Pdq_workload.Size_dist.t ->
  unit ->
  t
(** [depth] sequential single-flow transfer stages. *)

(** {1 Structure} *)

val flow_count : t -> int
(** Sum over the stages of an upper bound on each stage's flow count
    ([Shuffle] colocation can only remove flows). *)

val levels : t -> int array
(** Topological level of each stage: 0 for a root stage, otherwise
    1 + the maximum level among its dependencies. *)

(** {1 Deadline propagation} *)

val stage_deadlines : ?floor:float -> t -> float option array
(** Split the job deadline into per-stage deadlines (relative to each
    stage's own injection time).

    Stages on the same topological level run concurrently and share
    that level's slice; the job deadline is divided across levels
    proportionally to each level's weight — the expected serialized
    bytes at its most loaded destination (mean flow size × the
    largest per-destination fan-in), which is the quantity that
    actually bounds how fast a level can finish. Every slice is then
    clipped up to [floor] (default 3 ms, the
    {!Pdq_workload.Deadline_dist} floor — tiny deadlines are
    unrealistic), so the clipped slices can sum to {e more} than the
    job deadline for very tight jobs.

    All [None] when the job has no deadline. *)
