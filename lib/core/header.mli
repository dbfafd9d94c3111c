(** The PDQ scheduling header (§3, deployment note in §7).

    On the wire this is 16 bytes — four 4-byte fields [R_H], [P_H],
    [D_H], [T_H]; the receiver reuses the [D_H]/[T_H] slots for [I_S]
    and [RTT_S] on the reverse path. In the simulator we keep all six
    fields in one record; {!wire_bytes} accounts for the real 16-byte
    overhead. Switches mutate [rate], [pause_by] and [inter_probe] as
    the packet traverses the path. *)

type t = {
  mutable rate : float;
      (** [R_H]: proposed sending rate in bits/second. The sender
          initializes it to its maximal rate; each switch lowers it to
          its available bandwidth; the receiver caps it at its
          processing rate. *)
  mutable pause_by : int option;
      (** [P_H]: ID of the switch pausing the flow, or [None] if every
          switch so far accepts it. *)
  mutable pause_flow : int option;
      (** Simulator-side diagnostic riding alongside [P_H]: the more
          critical flow whose reserved rate made the pausing switch
          say no, when the pause is a preemption ([None] for
          rate-controller or RCP-fallback pauses). Not part of the
          16-byte wire header — it only feeds telemetry, and reading
          it never influences a scheduling decision. *)
  deadline : float option;
      (** [D_H]: absolute flow deadline (seconds of simulated time), if
          any. *)
  mutable expected_tx_time : float;
      (** [T_H]: the sender's expected remaining transmission time
          (remaining size / maximal rate), seconds. *)
  mutable inter_probe_rtts : float;
      (** [I_H]: inter-probe interval in RTTs that switches impose on a
          paused sender (Suppressed Probing). 0 means "unset". *)
  mutable rtt : float;
      (** [RTT_H]: the sender's measured RTT (seconds); switches use it
          to maintain their average-RTT estimate. *)
}

val wire_bytes : int
(** Size of the scheduling header on the wire: 16 bytes. *)

val make :
  ?deadline:float ->
  rate:float ->
  expected_tx_time:float ->
  rtt:float ->
  unit ->
  t
(** Fresh forward-path header with [pause_by = None] and unset
    inter-probe time. *)

val copy : t -> t
(** Independent copy — used when a receiver reflects a data header into
    an ACK. *)
