(** Simulator profiler: per-run execution statistics so performance
    regressions show up as numbers instead of vibes.

    A profiler accumulates, across every {!Sim.t} it is attached to:
    events executed, cancelled events popped (dead-node overhead),
    the event-queue high-water mark, simulated seconds advanced,
    wall-clock seconds spent inside event actions (total and per
    interned event kind — see {!Sim.schedule_k}),
    and the resulting CPU-per-simulated-second ratio. Per-kind statistics are
    flat arrays indexed by {!Kind} id, so the record path hashes
    nothing.

    Attachment is opt-in; an unattached simulator pays one [match] per
    step and nothing else. Profiling never feeds back into the
    simulation (no randomness, no scheduling), so enabling it cannot
    change results.

    {b Domain safety.} Statistics are sharded per domain ({!slot}):
    a simulator created on a worker domain records into that domain's
    own shard without taking any lock, so parallel sweeps
    ({!Pdq_exec.Sweep}) can run under an enabled global profiler.
    Readouts aggregate across shards; read them after the sweep has
    joined its workers for exact totals. {!enable_global} and
    {!disable_global} are safe to call from any domain. *)

type t

type slot
(** One domain's shard of a profiler. Obtained with {!slot} by the
    domain that will do the recording (this is what {!Sim.create}
    does); must not be shared across domains. *)

val create : unit -> t

val slot : t -> slot
(** The calling domain's shard, registered on first use. *)

val reset : t -> unit
(** Zero every statistic and prune the shards (including their
    per-event-kind tables) of all domains other than the caller's —
    typically worker domains that have since terminated. Do not call
    while a parallel sweep is recording. The global registration
    survives. *)

(** {1 Global opt-in}

    Experiment drivers build their simulators deep inside figure code;
    rather than threading a profiler through every layer, enable a
    process-global one and every subsequently created {!Sim.t} attaches
    to it. *)

val enable_global : unit -> t
(** Create (or return the existing) global profiler. Safe from any
    domain. *)

val global : unit -> t option
(** The global profiler, if {!enable_global} was called. *)

val disable_global : unit -> unit

(** {1 Recorders (called by [Sim] on the owning domain)} *)

val record_event : slot -> kind:Kind.t -> cpu:float -> unit
val record_cancelled : slot -> unit
val observe_queue : slot -> int -> unit
val record_advance : slot -> float -> unit

(** {1 Readouts (aggregated over every domain's shard)} *)

val events_executed : t -> int
val events_cancelled : t -> int
(** Cancelled placeholders popped off the heap without running. *)

val queue_high_water : t -> int
val sim_seconds : t -> float
val cpu_seconds : t -> float
(** Seconds spent inside event actions, stamped per event with the
    wall clock (cheap vdso reads; on a loaded machine it includes any
    preemption, so treat it as a profile, not an accounting). *)

val kinds : t -> (string * (int * float)) list
(** Per event kind: (count, CPU seconds), sorted by CPU descending.
    Events scheduled without a kind report as ["(unlabeled)"]. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable multi-line report. *)
