(** Mutable tables from [int] keys, for per-flow state looked up on
    every packet hop.

    Unlike [Hashtbl], a table hashes and compares its keys as ints (no
    call into the runtime's polymorphic hash or compare), stores a
    binding in two flat arrays (no block per entry), and {!find}
    allocates nothing, also when the values are floats. Every int is a
    valid key, [min_int] and negative ones included. Iteration order is
    unspecified. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table sized to hold [n] bindings without
    growing; it grows past that by doubling. [create 0] allocates no
    arrays until the first {!replace}. *)

val length : 'a t -> int
(** Number of bindings. *)

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** The value bound to the key. Raises [Not_found] if there is none. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key to the value, replacing any earlier binding. *)

val remove : 'a t -> int -> unit
(** Drop the key's binding, if any. *)

val clear : 'a t -> unit
(** Drop every binding. The table keeps its size, so a table cleared
    on every tick does not grow again each time. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over every binding once, in unspecified order. The function
    must not change the table. *)
