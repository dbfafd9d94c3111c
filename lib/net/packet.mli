(** Packets exchanged by the packet-level simulator.

    The network layer is protocol-agnostic: each transport attaches its
    own control information by extending the open {!payload} type.
    Wire sizes follow §5.1/§7 of the paper: 1500-byte MTU, 40 bytes of
    TCP/IP headers, plus the 16-byte PDQ scheduling header for
    PDQ-family protocols. *)

type kind =
  | Syn   (** Flow initialization. *)
  | Syn_ack
  | Data
  | Ack
  | Probe (** Scheduling header, no data content (paused PDQ flows). *)
  | Term  (** Flow termination (completion or Early Termination). *)

type payload = ..
(** Per-protocol control information; transports extend this type. *)

type payload += No_payload

type t = {
  flow : int;         (** Flow (or subflow) id. *)
  src : int;          (** Source host node id. *)
  dst : int;          (** Destination host node id. *)
  kind : kind;
  wire_bytes : int;   (** Total size on the wire, incl. headers. *)
  payload_bytes : int;(** Application bytes carried ([Data] only). *)
  seq : int;          (** First application byte offset carried. *)
  mutable payload : payload; (** Mutable: switches rewrite headers in place. *)
  sent_at : float;    (** Departure time from the original sender. *)
}

val mtu : int
(** Maximum transmission unit: 1500 bytes. *)

val header_bytes : int
(** TCP/IP header bytes per packet: 40. *)

val max_payload : scheduling_header:int -> int
(** Application bytes that fit in one MTU given the extra scheduling
    header size (0 for TCP/RCP-style protocols, 16 for PDQ/D3). *)

val make :
  flow:int ->
  src:int ->
  dst:int ->
  kind:kind ->
  ?payload_bytes:int ->
  ?seq:int ->
  ?extra_header:int ->
  payload:payload ->
  now:float ->
  unit ->
  t
(** Create a packet; [wire_bytes] is computed as
    [header_bytes + extra_header + payload_bytes]. *)
