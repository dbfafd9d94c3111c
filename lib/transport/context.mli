(** Shared per-run state for the packet-level transports: the flow
    table, per-flow routes (flow-level ECMP pins one path per flow so
    ACKs retrace the data path), generic forwarding with per-protocol
    header-processing hooks, and the run's telemetry bus, through which
    flow lifecycle, fault and receive events are emitted.

    Each protocol module installs three hooks:
    - [on_forward ~link] — process a source→destination packet header
      just before it is enqueued on directed link [link];
    - [on_reverse ~fwd_link] — process a destination→source packet
      against the state of the forward-direction port [fwd_link];
    - [deliver ~node] — hand a packet addressed to [node] to the local
      endpoint. *)

type flow_spec = {
  src : int;              (** Source host node id. *)
  dst : int;              (** Destination host node id. *)
  size : int;             (** Application bytes to transfer. *)
  deadline : float option;(** Relative deadline (seconds after start). *)
  start : float;          (** Absolute start time. *)
}

type flow = {
  id : int;
  spec : flow_spec;
  deadline_abs : float option;
  mutable completed_at : float option;
      (** Time the receiver held every byte. *)
  mutable terminated : bool;
      (** Early Termination / quenching killed the flow. *)
  mutable aborted : bool;
      (** The sender's watchdog gave up after bounded retries (dead
          path or unrecoverable loss). *)
}

type t

val create :
  ?trace:Pdq_telemetry.Trace.t ->
  sim:Pdq_engine.Sim.t ->
  topo:Pdq_net.Topology.t ->
  rng:Pdq_engine.Rng.t ->
  unit ->
  t
(** [trace] (default {!Pdq_telemetry.Trace.null}) is the run's event
    bus; the context emits [Flow_admitted] / [Flow_completed] /
    [Flow_terminated] / [Flow_aborted] / [Flow_rx] / [Fault] events on
    it and protocols pick it up via {!trace} for their own
    emissions. *)

val sim : t -> Pdq_engine.Sim.t
val topo : t -> Pdq_net.Topology.t
val rng : t -> Pdq_engine.Rng.t

val init_rtt : float
(** 200 µs: the RTT every endpoint and switch estimator starts from
    before its first sample. *)

val now : t -> float

val trace : t -> Pdq_telemetry.Trace.t
(** The run's trace bus ({!Pdq_telemetry.Trace.null} when no sink is
    attached). *)

val add_flow : t -> flow_spec -> flow
(** Register an experiment flow; assigns the flow id and computes and
    pins its ECMP route. Raises [Invalid_argument], before any state
    changes, if the flow's [src] equals its [dst]. *)

val flows : t -> flow list
(** All registered flows, in registration order. *)

val fresh_subflow_id : t -> int
(** Allocate an id outside the experiment-flow space (M-PDQ
    subflows). *)

val register_route : t -> id:int -> src:int -> dst:int -> choice:int -> unit
(** Compute and pin the ECMP route for a (sub)flow id: the links
    {!Pdq_net.Router.path_links} walks, and for the way back each one's
    {!Pdq_net.Topology.reverse}, resolved once here. When the
    endpoints are partitioned the route is empty, tallied under
    ["fault.unroutable"], and the flow's packets are stale-dropped. *)

val register_route_nodes : t -> id:int -> int array -> unit
(** Pin an explicit node path (source-routing, e.g. BCube
    address-based multipath for M-PDQ subflows). Each hop is the
    {!Pdq_net.Topology.cable} between its two nodes, so consecutive
    nodes must be adjacent: otherwise, and for a path of fewer than two
    nodes, raises [Invalid_argument] and pins nothing. *)

val route : t -> int -> int array
(** The directed link ids of a (sub)flow's pinned route, source to
    destination. Raises [Failure] for an unknown id. *)

val set_hooks :
  t ->
  on_forward:(link:int -> Pdq_net.Packet.t -> unit) ->
  on_reverse:(fwd_link:int -> Pdq_net.Packet.t -> unit) ->
  deliver:(node:int -> Pdq_net.Packet.t -> unit) ->
  unit
(** Install protocol hooks and the node handlers on every node. *)

val transmit : t -> from:int -> Pdq_net.Packet.t -> unit
(** Send a packet from node [from] along its flow's pinned route,
    running the protocol hooks. Used both by original senders and by
    the forwarding path. It looks no link up: it indexes the links
    resolved when the route was pinned (or last recomputed by
    {!reroute}). A packet at a node off the route, and a reverse
    packet at the route's head, is dropped and tallied under
    ["drop.stale_route"]. *)

(** {2 Completion accounting} *)

val complete : t -> flow -> unit
(** Record receiver-side completion (idempotent). *)

val on_all_complete : t -> (unit -> unit) -> unit
(** Callback fired when every registered flow has completed or been
    terminated (used to stop long simulations early). *)

val flow_closed : t -> flow -> unit
(** Internal: called on termination to update the all-complete check. *)

val abort : t -> flow -> cause:string -> unit
(** Record a terminal watchdog abort (idempotent): marks the flow
    aborted, tallies ["abort." ^ cause] and counts the flow closed. *)

val on_abort : t -> (cause:string -> unit) -> unit
(** Observer fired at every counted abort, before the trace event. The
    runner wires it to the metrics registry
    ({!Pdq_telemetry.Metrics.Name.watchdog_abort}) so live counters
    track per-cause aborts as they happen; zero-cost when unset. *)

(** {2 Fault handling} *)

val reroute : t -> unit
(** Recompute every ECMP-derived pinned route against the current link
    status, resolving its links again (call after a link failure or
    recovery). Explicitly pinned source routes are untouched. Flows
    left without a path keep their stale route and are tallied under
    ["fault.unroutable"]; their watchdogs abort them eventually. *)

val run_switch_ports :
  t ->
  'p array ->
  kind:Pdq_engine.Sim.Kind.t ->
  until:float ->
  flush:('p -> unit) ->
  tick:('p -> link:Pdq_net.Link.t -> now:float -> float) ->
  unit
(** Drive a switch-side protocol's per-port state: [ports.(i)] belongs
    to directed link [i]. A switch reboot ({!reboot_switch}) calls
    [flush] on every port whose link leaves the rebooted node, in
    link-id order. Each port also gets a [kind] event at delay 0, in
    link-id order, that runs [tick] and re-arms itself after the delay
    [tick] returns, for as long as [now <= until]. *)

val reboot_switch : t -> node:int -> unit
(** Crash-reboot the switch [node]: tallies ["fault.switch_reboot"]
    and flushes the ports registered with {!run_switch_ports}. *)

val tally : t -> Pdq_engine.Stats.Tally.t
(** Per-cause abort and fault-event counters accumulated during the
    run. *)

val record_fault : t -> string -> unit
(** Increment a tally key (fault injection, drop accounting);
    ["fault.*"] keys also emit a [Fault] trace event. *)

val record_rx : t -> flow_id:int -> bytes:int -> unit
(** Called by receivers per delivered data packet; emits a [Flow_rx]
    trace event, one per data packet, from which per-flow goodput
    series are reconstructed. *)
