(** Unified execution options.

    One record carries the knobs that used to be scattered as
    [?jobs] / [?budget] / [?telemetry] optional arguments across
    {!Scenario.run}, {!Sweep.run}, {!Sweep.supervise} and the
    experiment helpers: every entry point takes a single
    [?opts:Exec_opts.t] instead, so adding an execution knob is one
    field here rather than an arity change rippling through every
    layer. Each consumer honours the fields that make sense for it and
    documents the ones it ignores ({!Sweep} runs are telemetry-free;
    single {!Scenario.run}s have no worker pool). *)

(** {1 Run budgets}

    The budget type lives here — below both [Scenario] and [Sweep] —
    so single runs and sweep attempts enforce exactly the same bounds. *)

type budget = {
  wall : float option;   (** Wall-clock seconds per attempt. *)
  events : int option;   (** Simulator events executed per attempt. *)
  live : int option;     (** Ceiling on live queued events (heap
                             blow-up guard). *)
  check_every : int;     (** Cooperative check period, in events. *)
}
(** Per-attempt budget, enforced via {!Pdq_engine.Sim} cooperative
    cancellation: every simulator created while an attempt runs checks
    the budget every [check_every] events (tightened automatically for
    small event budgets) and raises [Sim.Cancelled] when it trips.
    Costs nothing when empty, one [match] per event otherwise. *)

val budget :
  ?wall:float -> ?events:int -> ?live:int -> ?check_every:int -> unit -> budget
(** [check_every] defaults to 1024. *)

val with_budget : budget -> (unit -> 'a) -> 'a
(** [with_budget b fn] installs [b] as the calling domain's default
    cancellation hook for the duration of [fn] — every simulator
    created inside picks it up. The wall deadline is anchored at the
    call; a tripped budget raises [Sim.Cancelled] out of [fn]. *)

val with_budget_from : budget -> start:float -> (unit -> 'a) -> 'a
(** {!with_budget} with the wall deadline anchored at [start] instead
    of the call instant (a retrying supervisor anchors at the attempt
    start). *)

(** {1 Options} *)

type t = {
  jobs : int option;
      (** Worker domains for sweep entry points; [None] =
          {!Sweep.default_jobs}. Ignored by single runs. *)
  budget : budget;  (** Per-run (or per-attempt) budget. *)
  telemetry : Pdq_transport.Runner.telemetry option;
      (** Trace/metrics sinks for single runs. Ignored by sweeps —
          sinks are per-run mutable state and channels would interleave
          across domains (see the {!Sweep} telemetry caveat). *)
}

val default : t
(** No jobs pin, empty budget, no telemetry — every entry point treats
    a missing [?opts] as this. *)

val make :
  ?jobs:int -> ?budget:budget -> ?telemetry:Pdq_transport.Runner.telemetry ->
  unit -> t

val jobs : int -> t
(** [jobs n] is [{default with jobs = Some n}] — the common
    "just pin the worker count" literal. *)

val telemetry : Pdq_transport.Runner.telemetry -> t
(** [telemetry tel] is [{default with telemetry = Some tel}]. *)

val with_budget_opt : t -> (unit -> 'a) -> 'a
(** {!with_budget} applied to the record's budget field. *)
