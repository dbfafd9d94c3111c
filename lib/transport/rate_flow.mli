(** Shared machinery for explicit-rate transports without pausing
    (RCP, D3): a paced sender clocked by switch-granted rates carried
    in packet headers, a header-echoing receiver, go-back-N loss
    recovery, and optional quenching (D3's deadline-based flow
    termination).

    Protocol specifics are injected through {!ops}: how to build a
    forward payload, how to extract the granted rate from an ACK, how
    the receiver reflects a header, and when to quench. *)

type sender

type ops = {
  extra_header : int;
      (** Wire bytes of the protocol's scheduling header. *)
  min_rate : float;
      (** Rate floor so a flow always makes progress (explicit-rate
          protocols never pause). *)
  fwd_payload : sender -> Pdq_net.Packet.kind -> Pdq_net.Packet.payload;
      (** Payload for an outgoing SYN/DATA/TERM. *)
  ack_payload :
    cum_ack:int -> echo_ts:float -> Pdq_net.Packet.t -> Pdq_net.Packet.payload;
      (** Receiver-side: payload of the ACK echoing the given forward
          packet. *)
  rate_of_ack : sender -> Pdq_net.Packet.t -> float option;
      (** Granted rate extracted from an ACK payload, if any. *)
  quench : sender -> now:float -> bool;
      (** True when the sender should terminate the flow (D3
          quenching); checked on every ACK and watchdog tick. *)
}

type t
(** One installed protocol instance (registry of senders/receivers). *)

val install : ctx:Context.t -> ops:ops -> t
(** Create the registry. The caller must still install {!Context}
    hooks whose [deliver] is {!deliver}. *)

val deliver : t -> node:int -> Pdq_net.Packet.t -> unit
(** Endpoint dispatch for packets addressed to [node]. *)

val start_flow : t -> Context.flow -> unit

(** Sender accessors available to [ops] callbacks: *)

val sender_flow : sender -> Context.flow
val sender_rtt : sender -> float
val sender_remaining : sender -> int
(** Unacknowledged bytes. *)

val sender_deadline : sender -> float option
