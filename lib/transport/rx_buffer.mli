(** Receiver-side reassembly state for one flow (or subflow).

    Tracks which application bytes have arrived as a set of disjoint
    byte intervals so duplicates are not double-counted and arbitrary
    segment boundaries are exact (M-PDQ load shifts create unaligned
    ones), and exposes the cumulative in-order byte count used for
    ACKs (go-back-N / TCP semantics). *)

type t

val create : ?capacity:int -> size:int -> segment:int -> unit -> t
(** [size] is the flow size in bytes; [segment] the full data-packet
    payload size (the last segment may be shorter). [capacity] (default
    [size]) reserves bitmap room for later growth via {!set_size} —
    M-PDQ subflows can be assigned up to the whole parent flow. *)

val set_size : t -> int -> unit
(** Change the expected size (within [capacity], not below the bytes
    already received). *)

val on_data : t -> seq:int -> bytes:int -> unit
(** Record arrival of [bytes] application bytes starting at offset
    [seq]. Duplicate deliveries are idempotent. *)

val cumulative_ack : t -> int
(** Number of bytes received contiguously from offset 0. *)

val received_bytes : t -> int
(** Total distinct bytes received (regardless of order). *)

val complete : t -> bool
(** All [size] bytes have arrived. *)
