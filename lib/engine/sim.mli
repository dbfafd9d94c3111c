(** Discrete-event simulation core.

    A simulator owns a virtual clock and an event queue. Events are
    thunks scheduled at absolute or relative virtual times; [run]
    executes them in nondecreasing time order (ties broken by
    scheduling order, so runs are deterministic).

    The queue is a monomorphic structure-of-arrays binary heap (unboxed
    times, flat int arrays for sequence/slot/generation) over a slot
    store of event records; handles are immediate ints carrying a
    generation stamp, so scheduling and cancelling allocate nothing and
    cancellation recycles its slot instead of leaving a dead record to
    be collected.

    Beside the heap sit a few FIFO lanes, one per fixed relative delay
    ({!schedule_fixed_k}). Events in a lane are already in (time, seq)
    order, so a lane is an O(1) ring, and {!run} fires the least of
    the heap root and the lane heads: the same order as one heap. See
    DESIGN.md, "Event-core internals". *)

module Kind = Kind
(** Interned event-kind labels; see {!Kind.register}. Re-exported so
    callers can write [Sim.Kind.register "link.tx"]. *)

type t
(** A simulator instance. *)

type handle
(** A handle on a scheduled event, usable to {!cancel} it. Handles are
    immediate ints (no allocation) and carry a generation stamp: a
    handle whose event has fired or been cancelled is recognised as
    stale even after its slot has been reused. *)

val create : unit -> t
(** A fresh simulator with clock at time [0.]. If a global
    {!Profiler.t} is enabled it is attached automatically. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule sim ~delay f] runs [f] at time [now sim +. delay].
    Raises [Invalid_argument] if [delay < 0.]. The event is unlabeled;
    {!schedule_k} labels one. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at sim ~time f] runs [f] at absolute [time]. Scheduling
    at exactly [now sim] is allowed — the event fires after everything
    already scheduled at that instant (ties break by sequence order).
    Raises [Invalid_argument] only if [time] is strictly in the
    past. *)

val schedule_k : t -> Kind.t -> delay:float -> (unit -> unit) -> handle
(** [schedule_k sim kind ~delay f] is {!schedule} for an event labeled
    [kind], an interned label ({!Kind.register}, e.g. "link.tx") that
    groups the event in profiler reports and does not affect
    execution. The kind is passed positionally: an optional argument
    would allocate a [Some] cell per call (non-flambda builds cannot
    eliminate it), and the per-event hot paths (links, ports,
    watchdogs) schedule through here. *)

val schedule_at_k : t -> Kind.t -> time:float -> (unit -> unit) -> handle
(** {!schedule_at}, kind passed positionally (see {!schedule_k}). *)

val schedule_fixed_k : t -> Kind.t -> delay:float -> (unit -> unit) -> unit
(** [schedule_fixed_k sim kind ~delay f] runs [f] at [now sim +. delay],
    in the same (time, seq) order as {!schedule_k}, but the event cannot
    be cancelled. Events that share a [delay] (compared with float
    equality) share a FIFO lane, so scheduling and firing them are
    O(1). There are a few lanes; when all of them are busy with other
    delays, the event goes to the heap. Use it for the delays a caller
    repeats on every event, such as a link's latency. Raises
    [Invalid_argument] if [delay < 0.] or is NaN. *)

val cancel : t -> handle -> unit
(** Cancel a pending event. Its slot is recycled immediately (the
    closure is released for collection); the heap node left behind is
    skipped cheaply when popped. Cancelling an already-fired or
    cancelled event is a no-op. *)

val cancelled : t -> handle -> bool
(** Whether the event was cancelled (or already consumed). *)

val pending : t -> int
(** Number of events still physically queued, lane events included.
    Cancellation does not
    remove an event's node from the heap — it only invalidates it, to
    be skipped when popped — so this count {e includes} cancelled
    placeholders; the profiler reports them as cancelled pops. *)

val set_profiler : t -> Profiler.t option -> unit
(** Attach or detach a profiler (recording goes to the calling
    domain's shard of it). Unattached simulators pay a single match
    per step. *)

(** {2 Cooperative cancellation}

    A supervisor (e.g. {!Pdq_exec.Sweep}) bounds a run by installing a
    cancellation hook: after every [every] executed events the hook is
    asked whether the run is still within budget, and a [Some reason]
    answer aborts the run by raising {!Cancelled} out of {!run}. The
    check is cooperative — it only fires between events — and costs a
    single [match] per step when no hook is installed. *)

exception Cancelled of { reason : string; events : int }
(** Raised out of {!run} when a cancellation hook trips.
    [events] is {!events_executed} at that point. The simulator is left
    mid-run and should be discarded. *)

val events_executed : t -> int
(** Live events executed by this simulator so far (the budget
    currency of event-count limits). *)

val check_every : int
(** 1024: how many events a cancellation hook normally lets pass
    between checks. *)

val with_default_cancel :
  every:int -> (t -> string option) -> (unit -> 'a) -> 'a
(** [with_default_cancel ~every hook f] runs [f] with [hook], asked
    every [every] events, installed as the {e calling domain's}
    default: every simulator {!create}d by this domain during [f]
    starts with the hook attached. This is how a
    sweep worker imposes a per-attempt budget on the simulators a
    scenario builds internally. Restores the previous default on exit,
    also on exception. *)

val set_global_cancel : (t -> string option) -> unit
(** Process-wide default hook, attached to every subsequently created
    simulator on {e any} domain that has no domain-local default — a
    whole-process deadline for multi-domain sweeps (bench
    [--timeout]). It is asked every {!check_every} events. *)

val clear_global_cancel : unit -> unit

val stop : t -> unit
(** Make the current (or next) {!run} return after the event being
    executed; pending events stay queued. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue drains, or — when [until] is given —
    until the next event would fire strictly after [until] (the clock is
    then left at [until]). *)
