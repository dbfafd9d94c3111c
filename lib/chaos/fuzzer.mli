(** Invariant fuzzing with counterexample shrinking.

    The fuzzer expands a master seed into a campaign of random {!case}s
    — (scenario, fault plan) pairs as pure data, the plan mixing link
    flaps with adversarial packet conditions — runs each through
    {!Pdq_exec.Scenario.run_checked} so every [Pdq_check] monitor
    fires, and, when a run violates an invariant, shrinks its plan to
    a minimal reproducer (greedy event removal, then parameter
    halving). A case's JSON form is the replayable
    counterexample artifact: [pdq_sim chaos --replay] feeds it back
    through the same pipeline.

    Determinism: case generation draws from one seeded rng in a fixed
    order; each case's run derives every stream from the case's own
    seed. Campaigns execute under {!Pdq_exec.Sweep.supervise}, whose
    results are in input order — the same master seed gives
    bit-identical campaigns on any worker count. *)

type case = {
  protocol : string;  (** A {!Pdq_exec.Scenario.protocol_of_string} name. *)
  topo : string;      (** A {!Pdq_exec.Scenario.topo_of_string} name. *)
  pattern : string;   (** A {!Pdq_exec.Scenario.pattern_of_string} name. *)
  flows : int;
  mean_bytes : int;   (** Mean of the paper's uniform size law. *)
  deadlines : bool;   (** Draw paper-default deadlines (20 ms mean). *)
  seed : int;
  horizon : float;
  faults : Pdq_faults.Fault_plan.t;
      (** Network and adversarial events alike. *)
}

val case_to_json : case -> string
(** One self-contained JSON object, every plan event under
    ["faults"]; exact round-trip. *)

val case_of_json : string -> (case, string) result
(** Exact inverse of {!case_to_json}; strict. Also reads an optional
    ["adversary"] event array and merges it into the plan, so
    reproducers that kept adversarial events apart still replay. *)

val key : case -> string
(** Content hash of the JSON form — the checkpoint key (stable across
    binaries, unlike {!Pdq_exec.Scenario.digest}). *)

val pp_case : Format.formatter -> case -> unit

val default_protocols : string list
(** ["pdq"; "rcp"; "d3"; "tcp"] — the healthy roster. *)

val targets_of_case :
  case -> (int * int) list * (int * int) list * int list
(** [(cables, switch_cables, switches)] of the case's topology (built
    as a probe instance with the case's seed): all duplex cables in
    link-id order, the switch-switch subset, and the switch nodes. *)

val run_case :
  ?budget:Pdq_exec.Exec_opts.budget ->
  case ->
  (Pdq_exec.Scenario.checked, string) result
(** Run the case under the full validation stack, its plan installed
    by the runner as the scenario's faults. [Error] on unresolvable
    names, and on a plan naming a cable the case's topology lacks
    (checked on a probe instance before the run starts). A tripped
    [budget] raises [Sim.Cancelled]. *)

val signature : Pdq_exec.Scenario.checked -> string option
(** The first violation's invariant id, or [None] for a clean run. *)

(** {1 Supervised campaigns} *)

type verdict = {
  invariant : string option;  (** First violated invariant, if any. *)
  detail : string;            (** Rendered first violation. *)
  violations : int;
}

type campaign = {
  cases : case list;
  verdicts : verdict Pdq_exec.Task.t list;  (** In case order. *)
  report : Pdq_exec.Sweep.report;
}

val cases :
  runs:int ->
  seed:int ->
  ?protocols:string list ->
  ?intensity:float ->
  unit ->
  case list
(** The campaign's case list (deterministic in [seed]). Each case
    draws protocol, topo, pattern, workload shape and seed first, then
    link flaps (30% of cases) and 1–8 adversarial events at
    [intensity] (default [0.35]), merged into one plan. *)

val fuzz :
  ?jobs:int ->
  ?budget:Pdq_exec.Exec_opts.budget ->
  ?checkpoint:string ->
  ?resume:string ->
  ?protocols:string list ->
  ?intensity:float ->
  runs:int ->
  seed:int ->
  unit ->
  campaign
(** Generate and run a campaign under {!Pdq_exec.Sweep.supervise}
    on [jobs] workers, [budget] bounding each case (checkpoint slots
    are keyed by {!key}). Verdicts are in case order regardless of the
    worker count. *)

val first_violation : campaign -> (int * case * string) option
(** Lowest-index case whose run violated an invariant, with the
    violated invariant id — the shrink target. *)

(** {1 Shrinking} *)

type shrunk = {
  original : case;
  minimal : case;
  invariant : string;
  runs_used : int;  (** Re-executions the shrinker spent. *)
}

val shrink :
  ?budget:Pdq_exec.Exec_opts.budget ->
  ?max_runs:int ->
  case ->
  invariant:string ->
  shrunk
(** Greedy minimization holding the violation fixed: first remove plan
    events one at a time (restarting after every successful deletion)
    until no single deletion still reproduces [invariant], then halve
    event parameters (probabilities, holds, delays, skews and loss
    rates) to a fixpoint. At most [max_runs] (default 150)
    re-executions, each bounded by [budget]; a re-run that trips the
    budget counts as not reproducing. When the runs are spent the best
    case so far is returned.
    [shrink] never returns a case that fails to reproduce: every
    accepted mutation was verified. *)
