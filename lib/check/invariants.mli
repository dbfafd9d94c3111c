(** Runtime invariant monitors for packet-level runs.

    A monitor consumes the run's trace stream (via a {!sink} attached
    to the telemetry bus) and per-port scheduler snapshots (the port
    probe of {!telemetry}); {!finalize} then replays the collected soft
    state against the finished {!Pdq_transport.Runner.result} and returns
    every violated inequality as a {!Report.violation}.

    Monitored invariants:
    - {b capacity}: per directed link, the sum of PDQ-granted sender
      rates stays within the line rate except for Early Start bursts
      shorter than [es_window];
    - {b bytes}: receivers never accept more than the flow size, and a
      completed flow delivered exactly its size;
    - {b flow_list}: every PDQ port keeps at most [M] entries, the
      sending/paused split is consistent, internal order and rate
      bounds hold ({!Pdq_core.Switch_port.invariant_errors}), and the
      2κ capacity is only exceeded transiently;
    - {b deadline}: [met_deadline] agrees with [fct <= deadline], and
      Early Termination only killed flows that could no longer finish
      in time.

    Attaching a monitor never perturbs the run: the sink only observes
    the bus, and the port probe rides the same telemetry grid as the
    metrics probe. With no monitor attached nothing is allocated or
    scheduled. *)

type t

val create : unit -> t
(** A fresh monitor. Its tolerances are fixed: Early Start bursts may
    oversubscribe a link for up to 50 ms ([es_window]). This is
    deliberately coarse: Early Start over-commits for ~2 RTTs, and
    under heavy congestion senders hold stale grants for a further
    congested RTT (several ms) until the pausing ACK crosses the
    queues, so the sweep is a gross conservation bound; the tight
    allocator check is the switch-side [mature_rate_sum] probe, which
    sees grants with no sender lag. A burst counts only beyond 2% over
    the line rate ([capacity_slack]). Early Termination gets 2 ms of
    grace in its feasibility test ([rtt_slack]). An incomplete flow's
    last granted rate keeps counting against link capacity for 5 ms
    after its last rx/rate event ([stale_grace]), since a stalled
    sender holds a lease it no longer uses. At most 200 violations are
    reported ([max_violations]). *)

val sink : t -> Pdq_telemetry.Trace.sink
(** Trace-bus sink feeding the monitor's streaming checks. *)

val telemetry :
  t ->
  base:Pdq_transport.Runner.telemetry ->
  Pdq_transport.Runner.telemetry
(** [base] with this monitor's sink and port probe attached (composes
    with an existing probe). *)

val violations : t -> Report.violation list
(** Streaming violations collected so far, oldest first. *)

val finalize :
  t ->
  result:Pdq_transport.Runner.result ->
  topo:Pdq_net.Topology.t ->
  Report.violation list
(** Run the end-of-run checks (capacity sweep over pinned routes, byte
    conservation at completion, deadline accounting) and return all
    violations sorted by time. Call once, after the simulation. *)
