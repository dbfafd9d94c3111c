(** The paced endpoint of PDQ, RCP and D3. A sender paces data at its
    current rate, retransmits its SYN with bounded, jittered backoff,
    aborts when its path stays silent for 1 s, and goes back to the
    cumulative ack point when progress stalls. A receiver reassembles
    in an {!Rx_buffer}, completes the flow and answers every SYN, DATA
    and probe with an ACK.

    A protocol supplies per-sender state ['x] and an {!ops} record:
    its forward and reply payloads; its ACK processing, which sets the
    sender's rate and RTT (PDQ: the {!Pdq_core.Sender} state machine
    and fast retransmit; RCP/D3: the granted rate, floored); its
    termination check (PDQ Early Termination, D3 quenching); the
    watchdog's re-arm delay (with RCP/D3's per-RTT rate-request
    probe); and its three event kinds. *)

type 'x ops = {
  k_send : Pdq_engine.Sim.Kind.t;
  k_watchdog : Pdq_engine.Sim.Kind.t;
  k_launch : Pdq_engine.Sim.Kind.t;
  extra_header : int;  (** Wire bytes of the scheduling header. *)
  payload : 'x sender -> Pdq_net.Packet.payload;  (** Forward packets. *)
  reply :
    'x sender ->
    Pdq_net.Packet.t ->
    Payloads.ack_info ->
    Pdq_net.Packet.payload;
      (** Receiver side: payload of the ACK answering a forward packet. *)
  on_ack :
    'x sender -> Pdq_net.Packet.t -> Payloads.ack_info -> now:float -> unit;
      (** Protocol feedback of an ACK, before the cumulative ack
          advances: sets [rate] and [rtt]. *)
  should_terminate : 'x sender -> now:float -> bool;
      (** Checked on every ACK and watchdog pass. *)
  tick : 'x sender -> now:float -> float;
      (** End of a watchdog pass that left the sender open: protocol
          work, then the delay to the next pass. *)
  sync : 'x sender -> unit;
      (** After every ACK and when the sender closes. *)
  on_rx : 'x sender -> bytes:int -> unit;
      (** Receiver side: newly delivered bytes. *)
}

and 'x sender = {
  ctx : Context.t;
  ops : 'x ops;
  id : int;  (** Flow or M-PDQ subflow id. *)
  src : int;
  dst : int;
  flow : Context.flow option;
      (** The experiment flow; [None] for an M-PDQ subflow. *)
  mutable size : int;
  mutable rate : float;
      (** Current sending rate; 0 stops pacing. PDQ copies [rate] and
          [rtt] from its {!Pdq_core.Sender} after every ACK. *)
  mutable rtt : float;
  mutable next_seq : int;
  mutable sent_hi : int;  (** High-water mark of [next_seq]. *)
  mutable acked : int;  (** Cumulative acked bytes. *)
  mutable syn_acked : bool;
  mutable last_syn : float;
  mutable syn_wait : float;
  mutable syn_retries : int;
  mutable last_ack : float;
  mutable last_progress : float;
  mutable last_tx : float;
  mutable send_ev : Pdq_engine.Sim.handle option;
  mutable closed : bool;
  mutable terminated : bool;  (** Closed by {!terminate} or an abort. *)
  mutable send_fn : unit -> unit;
  mutable watchdog_fn : unit -> unit;  (** One watchdog pass. *)
  rx : Rx_buffer.t;
  ext : 'x;
}

type 'x t
(** The senders of one installed protocol. *)

val create : Context.t -> 'x ops -> 'x t

val deliver : 'x t -> node:int -> Pdq_net.Packet.t -> unit
(** The protocol's {!Context} [deliver] hook. *)

val launch :
  'x t ->
  id:int ->
  src:int ->
  dst:int ->
  size:int ->
  capacity:int ->
  start:float ->
  flow:Context.flow option ->
  'x ->
  'x sender
(** Register a sender whose route is pinned under [id] and launch it:
    SYN at [start] (at once if [start] has passed), then the watchdog.
    [capacity] bounds the receive buffer's later growth. *)

val now : 'x sender -> float
val transmit : 'x sender -> Pdq_net.Packet.t -> unit

val make_pkt :
  'x sender ->
  kind:Pdq_net.Packet.kind ->
  ?payload_bytes:int ->
  ?seq:int ->
  unit ->
  Pdq_net.Packet.t

val cancel_opt :
  'x sender -> Pdq_engine.Sim.handle option -> Pdq_engine.Sim.handle option
(** Cancel a pending event; returns [None]. *)

val ensure_sending : 'x sender -> unit
val finish : 'x sender -> unit
(** Close after the last byte is acked and TERM the switches. *)

val terminate : 'x sender -> unit
(** Close before completion and TERM the switches; the flow, if any,
    counts as terminated. *)

val backoff_cap : int  (** Exponent cap of every retry backoff. *)

val jittered : Pdq_engine.Rng.t -> float -> float
(** A delay scaled by a uniform factor in [[0.75, 1.25)]. *)

val nic_rate : Pdq_net.Topology.t -> int -> float
(** Highest line rate among a host's ports: the rate its NIC can
    source or sink. *)

(** {2 Explicit-rate senders (RCP, D3)} *)

type explicit = { nic : float  (** {!nic_rate} of the source. *) }

val explicit_rate :
  extra_header:int ->
  min_rate:float ->
  payload:(explicit sender -> Pdq_net.Packet.payload) ->
  reply:
    (explicit sender ->
    Pdq_net.Packet.t ->
    Payloads.ack_info ->
    Pdq_net.Packet.payload) ->
  grant:(explicit sender -> Pdq_net.Packet.t -> float option) ->
  quench:(explicit sender -> now:float -> bool) ->
  explicit ops
(** A sender that never pauses: it sends at the rate granted in each
    ACK, floored at [min_rate], and probes once per RTT when data is
    too slow to carry its requests. Event kinds [rate.send],
    [rate.watchdog] and [rate.launch]. *)

val start_flow : explicit t -> Context.flow -> unit
