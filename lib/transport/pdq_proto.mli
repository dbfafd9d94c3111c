(** Packet-level PDQ (§3): {!Pdq_core.Switch_port} flow and rate
    controllers on every directed link (switch output queues and host
    NIC shim alike), and {!Endpoint} senders driven by the
    {!Pdq_core.Sender} state machine, which pause and probe, retransmit
    fast on three duplicate ACKs, and echo headers capped at the
    receiver's NIC rate. A flow is one {e stream}; M-PDQ runs several
    per flow. *)

type t

val install :
  ?size_info:Pdq_core.Sender.size_info ->
  config:Pdq_core.Config.t ->
  ctx:Context.t ->
  until:float ->
  unit ->
  t
(** Create per-link switch ports, install forwarding hooks and start
    the per-port rate-controller loops (which run until [until]).
    [size_info] (default [Known]) selects the §5.6 size-estimation
    mode for all senders. *)

val port : t -> int -> Pdq_core.Switch_port.t
(** The PDQ port of a directed link (for inspection/tests). *)

val port_flow_counts : t -> link:int -> int * int
(** [(active, paused)] flows stored on a directed link's port: flows
    currently granted rate, and stored-but-paused flows. Feeds the
    telemetry metrics prober. *)

val start_flow : t -> Context.flow -> unit
(** Schedule a registered experiment flow: SYN at its start time,
    completion/termination recorded on the {!Context.t}. *)

(** {2 Stream interface (used by M-PDQ)} *)

type stream

val start_stream :
  ?rx_capacity:int ->
  t ->
  sid:int ->
  src:int ->
  dst:int ->
  size:int ->
  deadline_abs:float option ->
  start:float ->
  on_rx:(bytes:int -> unit) ->
  on_event:(unit -> unit) ->
  stream
(** Launch an independent PDQ stream whose route was already registered
    under [sid]. [on_rx] fires at the receiver per newly delivered
    byte count; [on_event] fires after every sender-side state change
    (ack processed, pause/unpause, termination) so a coordinator can
    rebalance. *)

val stream_remaining_unsent : stream -> int
(** Bytes assigned to the stream but not yet sent (movable load). *)

val stream_assigned : stream -> int
(** Currently assigned stream size in bytes. *)

val stream_is_paused : stream -> bool
val stream_is_done : stream -> bool
val stream_terminated : stream -> bool

val stream_resize : stream -> int -> unit
(** Assign a new size (must not cut below the bytes already sent). *)

val stream_terminate : stream -> unit
(** Early-terminate the stream (sends TERM). *)
