(** Binary min-heap of [int] values keyed by [float] priority, with
    stable tie-breaking.

    Entries are ordered by priority, then by insertion order: each
    entry takes a sequence number when it is pushed or appended, so
    [(priority, sequence)] is a total order and the set of entries
    alone fixes the pop sequence, whatever the heap's shape. Entries
    live in parallel arrays, so pushing and popping allocate nothing
    once the arrays have grown.

    The flow-level solver's max-min water-filling ([Flowsim]'s RCP
    model) is its user. The event core ({!Sim}) keeps its own
    structure-of-arrays heap of timed events. *)

type t
(** A mutable min-heap of [int] values. *)

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty heap. [capacity] pre-sizes the backing
    arrays (default 256); they double when full. *)

val length : t -> int
(** Number of entries currently stored. *)

val is_empty : t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : t -> float -> int -> unit
(** [push h prio v] inserts [v] with priority [prio]. O(log n). *)

val min_prio : t -> float
(** The priority of the entry [pop] would remove next. Raises
    [Invalid_argument] on an empty heap. *)

val pop : t -> int
(** [pop h] removes the minimum entry, breaking priority ties by
    insertion order, and returns its value. Raises [Invalid_argument]
    on an empty heap. O(log n). *)

val append : t -> float -> int -> unit
(** [append h prio v] adds an entry like {!push} but without restoring
    heap order: call {!heapify} before the next [push], [min_prio] or
    [pop]. O(1); a run of appends plus one [heapify] builds a heap in
    O(n). *)

val heapify : t -> unit
(** Restore heap order over every entry. O(n). *)

val filter : t -> (int -> bool) -> unit
(** [filter h keep] drops every entry whose value fails [keep] and
    rebuilds the heap in O(n). Kept entries keep their sequence numbers,
    so the pop sequence afterwards is the one the unfiltered heap would
    have produced, with the dropped entries left out. *)

val clear : t -> unit
(** Remove all entries and restart the insertion sequence. The backing
    arrays are kept for reuse. *)
