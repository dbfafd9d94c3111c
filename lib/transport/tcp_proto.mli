(** Packet-level TCP Reno (§5.1 baseline): slow start, congestion
    avoidance, triple-duplicate-ACK fast retransmit with fast recovery,
    RTO with Jacobson estimation and a small [RTOmin] of 1 ms to
    mitigate incast, as suggested by the studies the
    paper cites. Switches are plain FIFO tail-drop queues — no hooks. *)

type t

val install : ctx:Context.t -> unit -> t
val start_flow : t -> Context.flow -> unit
