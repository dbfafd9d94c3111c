(** One direction of a network cable: a FIFO tail-drop output queue
    feeding a store-and-forward transmitter, then propagation and
    per-hop processing delay (§5.1: 11 µs transmission for an MTU at
    1 Gbps, 0.1 µs propagation, 25 µs processing; 4 MByte buffer).

    Loss injection models the lossy-channel experiments of Fig. 9
    (independent Bernoulli drops) and, for the resilience harness,
    bursty Gilbert–Elliott episodes and administrative link-down
    status. Runs install loss processes only through
    [Pdq_faults.Fault_plan] events. *)

type gilbert_elliott = {
  p_gb : float;   (** Per-packet Good→Bad transition probability. *)
  p_bg : float;   (** Per-packet Bad→Good transition probability. *)
  loss_good : float;  (** Drop probability in the Good state. *)
  loss_bad : float;   (** Drop probability in the Bad state. *)
}
(** Two-state Markov loss channel: long stretches of (near-)lossless
    delivery punctuated by bursts of heavy loss. *)

type loss_model =
  | No_loss
  | Bernoulli of float  (** Independent per-packet drop probability. *)
  | Gilbert of gilbert_elliott

type t

val create :
  sim:Pdq_engine.Sim.t ->
  id:int ->
  src:int ->
  dst:int ->
  rate:float ->
  prop_delay:float ->
  proc_delay:float ->
  buffer_bytes:int ->
  unit ->
  t
(** [src]/[dst] are node ids (head and tail of the directed link);
    [rate] is in bits/s. *)

val id : t -> int
val src : t -> int
val dst : t -> int
val rate : t -> float

val prop_delay : t -> float
(** Propagation delay in seconds (used by the validation oracle to
    compute contention-free completion-time lower bounds). *)

val proc_delay : t -> float
(** Per-hop processing delay in seconds. *)

val buffer_bytes : t -> int
(** Output queue capacity in bytes (tail drop beyond it). *)

val set_receiver : t -> (Packet.t -> unit) -> unit
(** Install the delivery callback (the destination node's packet
    handler). Must be called before the first {!send}. *)

val receiver : t -> Packet.t -> unit
(** The currently installed delivery callback. Lets an interposition
    layer (the chaos adversary) wrap delivery:
    [set_receiver l (wrap (receiver l))]. *)

val send : t -> Packet.t -> unit
(** Enqueue a packet. It is dropped when the link is down, when the
    loss process fires, or when the buffer would overflow (tail drop);
    otherwise it is serialized at line rate and handed to the receiver
    after propagation + processing delay. *)

val queue_bytes : t -> int
(** Bytes currently waiting in the output queue (incl. the packet being
    serialized). *)

val set_loss_model : t -> loss_model -> rng:Pdq_engine.Rng.t -> unit
(** Install a loss process; resets the Gilbert–Elliott channel to the
    Good state. *)

val is_up : t -> bool
val set_up : t -> bool -> unit
(** Administrative status. A down link drops every offered packet
    (counted in {!dropped_down}); packets already accepted into the
    queue keep draining — the cut is at admission. Routing does not
    read this status: [Router] reads the flags of
    {!Topology.set_link_up}, which sets both directions of a duplex
    cable here and there together. Call [set_up] directly only on a
    link that no router routes over. *)

(** Cumulative counters, for utilization and drop statistics. *)

val delivered : t -> int

val dropped : t -> int
(** Total drops: loss process + buffer overflow + link down. *)

val dropped_loss : t -> int
(** Drops by the Bernoulli/Gilbert–Elliott loss process. *)

val dropped_overflow : t -> int
(** FIFO tail drops. *)

val dropped_down : t -> int
(** Packets offered while the link was administratively down. *)

val bytes_sent : t -> int

val utilization : t -> now:float -> float
(** Fraction of link capacity used since the previous call (or t = 0),
    based on bytes serialized in that window; resets the window to
    start at [now]. *)

val on_transmit : t -> (now:float -> bytes:int -> unit) -> unit
(** Register a tap called at the end of each packet serialization —
    used to record utilization and queue time series. *)

val set_trace : t -> Pdq_telemetry.Trace.t -> unit
(** Attach a trace bus; every drop then emits a
    [Packet_dropped {link; cause}] event tagged with its cause. Links
    start with the null bus, so untraced runs pay one inactive check
    per drop and allocate nothing. *)
