(** Interned event-kind identifiers.

    An event kind is a small label ("link.tx", "pdq.watchdog", …)
    grouping events in profiler reports. Kinds are registered once —
    typically in a [let] at module init — and the resulting id is
    passed to {!Sim.schedule_k}, so the hot scheduling path carries an
    immediate int instead of hashing a string per event, and profiler
    shards can index flat arrays by id. *)

type t
(** An interned kind id. Structural equality is meaningful. *)

val register : string -> t
(** Intern a label. Registering the same string twice returns the same
    id. Thread-safe; intended to run once per label at module init,
    not on a per-event path. *)

val name : t -> string
(** The label this id was registered under. *)

val unlabeled : t
(** The id events scheduled without a kind report under
    (["(unlabeled)"]). *)

val count : unit -> int
(** Number of registered kinds (including {!unlabeled}) — the size a
    by-kind table needs to cover every id seen so far. *)

val to_int : t -> int
(** The raw id: a dense index in [0 .. count () - 1]. *)

val of_int : int -> t
(** Inverse of {!to_int}, for iterating by-kind tables. Ids outside
    [0 .. count () - 1] print as ["(unknown)"]. *)

val equal : t -> t -> bool
