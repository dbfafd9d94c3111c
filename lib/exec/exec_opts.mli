(** Run budgets.

    The budget type lives here — below both {!Scenario} and {!Sweep} —
    so single runs and sweep attempts enforce exactly the same bounds.
    Each entry point takes the settings it reads as its own optional
    arguments: [?budget] on {!Scenario.run} and on the {!Sweep}
    executors, [?jobs] on the sweeps only, [?telemetry] on single runs
    only. *)

type budget = {
  wall : float option;   (** Wall-clock seconds per attempt. *)
  events : int option;   (** Simulator events executed per attempt. *)
}
(** Per-attempt budget, enforced via {!Pdq_engine.Sim} cooperative
    cancellation: every simulator created while an attempt runs checks
    the budget every 1024 events (more often for small event budgets)
    and raises [Sim.Cancelled] when it trips. Costs nothing when
    empty, one [match] per event otherwise. *)

val budget : ?wall:float -> ?events:int -> unit -> budget

val with_budget : budget -> (unit -> 'a) -> 'a
(** [with_budget b fn] installs [b] as the calling domain's default
    cancellation hook for the duration of [fn] — every simulator
    created inside picks it up. The wall deadline is anchored at the
    call; a tripped budget raises [Sim.Cancelled] out of [fn]. *)

val with_budget_from : budget -> start:float -> (unit -> 'a) -> 'a
(** {!with_budget} with the wall deadline anchored at [start] instead
    of the call instant (a retrying supervisor anchors at the attempt
    start). *)
