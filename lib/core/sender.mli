(** PDQ sender state machine (§3.1), substrate-independent.

    Tracks the sender-side variables [R_S] (current rate), [P_S]
    (pausing switch), [D_S] (deadline), [T_S] (expected remaining
    transmission time), [I_S] (inter-probe time) and [RTT_S], produces
    outgoing scheduling headers, folds ACK feedback back in, and
    decides Early Termination. The packet-level transport wraps this
    with actual pacing, probing and retransmission timers. *)

type t

type size_info =
  | Known
      (** The application announced the flow size (the common case in
          datacenters, §2.1 of [19]). *)
  | Estimated of int
      (** §5.6: no size knowledge — the advertised criticality is the
          running estimate "bytes sent so far plus one quantum",
          refreshed every quantum (the paper uses 50 KB) so switches
          see stable values. Smaller estimate = more critical. *)

val create :
  ?deadline:float ->
  ?size_info:size_info ->
  ?trace:Pdq_telemetry.Trace.t ->
  flow_id:int ->
  size_bytes:int ->
  max_rate:float ->
  init_rtt:float ->
  unit ->
  t
(** [max_rate] is the sender's maximal rate [R_S^max] (NIC line rate,
    possibly lowered by application limits). [T_S] divides by the
    goodput of that rate — [max_rate] times 1444/1500, the payload
    bytes of a full PDQ data packet per MTU — so that it honestly
    reflects header overhead and Early Termination does not serve
    flows that will miss by microseconds. [init_rtt] seeds [RTT_S]
    before the first measurement. [T_S] starts at size / (max rate ×
    1444/1500). [trace] (default
    {!Pdq_telemetry.Trace.null}) receives [Flow_paused] /
    [Flow_resumed] / [Flow_rate_set] events as ACK feedback moves the
    sender between states. *)

val flow_id : t -> int
val deadline : t -> float option
val size_bytes : t -> int

val rate : t -> float
(** Current sending rate [R_S] in bits/s (0 when paused). *)

val paused_by : t -> int option
(** Switch currently pausing the flow, if any. *)

val is_paused : t -> bool
(** [rate t = 0.] *)

val rtt : t -> float
(** Smoothed RTT estimate [RTT_S]. *)

val expected_tx_time : t -> float
(** [T_S] — remaining bytes at maximal rate. *)

val inter_probe_interval : t -> float
(** Seconds between probe packets while paused: [I_S × RTT_S], where
    [I_S] defaults to 1 RTT and grows under Suppressed Probing. *)

val remaining_bytes : t -> int
(** Bytes not yet acknowledged. *)

val set_size : t -> size:int -> acked:int -> unit
(** Change the flow's assigned size (M-PDQ moves unsent load between
    subflows); [acked] is the cumulative bytes already acknowledged on
    this subflow. Refreshes [T_S]. *)

val make_header : t -> t:float -> Header.t
(** Scheduling header for an outgoing packet: [R_H] carries the maximal
    rate [R_S^max] (§3.1), all other fields the current state. *)

val on_ack :
  t -> Header.t -> acked_bytes:int -> rtt_sample:float option -> now:float -> unit
(** Fold an ACK's reflected header into the sender state: records
    cumulative [acked_bytes], updates [T_S], applies the rate /
    pause-by / inter-probe feedback and the RTT sample. *)

val should_terminate : t -> now:float -> bool
(** Early Termination (§3.1): true when (1) the deadline has passed,
    (2) remaining transmission time exceeds time-to-deadline, or
    (3) the flow is paused and the deadline is within one RTT. Always
    false for flows without a deadline. *)

val finished : t -> bool
(** All bytes acknowledged. *)
