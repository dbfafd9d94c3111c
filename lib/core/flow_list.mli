(** The per-link flow list of a PDQ switch (§3.3.1): entries kept in
    criticality order (most critical first), bounded to the
    [2κ] most critical flows (κ = number of sending flows) with an
    overall hard memory bound [M].

    The container is agnostic to the bounding policy — {!Switch_port}
    applies the κ-based trimming; this module only guarantees order and
    provides the primitives. *)

type t

val create : unit -> t
(** Empty list. *)

val length : t -> int
val is_empty : t -> bool

val index_of : t -> int -> int
(** [index_of t flow_id] is the flow's index, 0 being the most critical
    stored flow, or [-1] when the flow is not stored. *)

val mem : t -> int -> bool

val insert : t -> Flow_state.t -> int
(** Insert in criticality order; returns the insertion index. The flow
    must not already be present. *)

val remove : t -> int -> Flow_state.t option
(** Remove by flow id; returns the removed state. *)

val remove_least_critical : t -> Flow_state.t option
(** Drop and return the last (least critical) entry. *)

val least_critical : t -> Flow_state.t option

val reposition_at : t -> int -> int
(** [reposition_at t i] restores order after the keyed fields
    (deadline, expected transmission time) of the entry at index [i]
    were mutated, by sifting that entry into place; returns its new
    index. The result is the list that removing the entry and
    re-inserting it would give. Raises [Invalid_argument] when [i] is
    out of bounds. *)

val get : t -> int -> Flow_state.t
(** [get t i] is the i-th most critical stored flow. Raises
    [Invalid_argument] when out of bounds. *)

val iteri : (int -> Flow_state.t -> unit) -> t -> unit
(** Iterate in criticality order with indices. *)

val fold : ('a -> Flow_state.t -> 'a) -> 'a -> t -> 'a
(** Fold in criticality order. *)

val sending_count : t -> int
(** κ: number of stored flows with positive rate. *)

val total_rate : t -> float
(** Sum of the stored flows' accepted rates. *)

val is_sorted : t -> bool
(** Invariant check (used by tests): entries are in strictly increasing
    criticality-key order. *)
