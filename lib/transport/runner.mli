(** Experiment runner: wires a topology, a protocol and a flow set
    into one deterministic packet-level simulation and extracts the
    paper's metrics. *)

type protocol =
  | Pdq of Pdq_core.Config.t
  | Pdq_estimated of { config : Pdq_core.Config.t; quantum : int }
      (** §5.6: senders do not know flow sizes — criticality is the
          running size estimate, refreshed every [quantum] bytes. *)
  | Mpdq of {
      config : Pdq_core.Config.t;
      subflows : int;
      paths : (src:int -> dst:int -> int array list) option;
          (** Explicit parallel paths per host pair (e.g.
              {!Pdq_topo.Builder.bcube_paths}); [None] = ECMP. *)
    }
  | Rcp
  | D3
  | Tcp

val mpdq : ?paths:(src:int -> dst:int -> int array list) -> subflows:int -> unit -> protocol
(** M-PDQ with PDQ(Full) switches. *)

val protocol_name : protocol -> string

type port_view = {
  pv_link : int;          (** Directed link id of the probed port. *)
  stored : int;           (** Flow-list entries currently stored. *)
  sending : int;          (** κ: stored flows with positive rate. *)
  paused : int;           (** Stored flows with rate 0. *)
  capacity_bound : int;   (** Current 2κ-style list capacity. *)
  max_list : int;         (** Hard memory bound [M]. *)
  line_rate : float;      (** Output line rate, bits/s. *)
  mature_rate_sum : float;
      (** {!Pdq_core.Switch_port.mature_rate_sum}: granted rate beyond
          the paper's Early Start allowance; must stay within
          [line_rate]. *)
  inconsistencies : string list;
      (** {!Pdq_core.Switch_port.invariant_errors} of the port. *)
}
(** Snapshot of one PDQ port's scheduler state, taken on the telemetry
    grid for the validation monitors ({!Pdq_check.Invariants}). *)

type telemetry = {
  sinks : Pdq_telemetry.Trace.sink list;
      (** Trace sinks attached to the run's event bus. Empty = the
          {!Pdq_telemetry.Trace.null} bus: no event is ever allocated
          and the run is bit-for-bit identical to an uninstrumented
          one. *)
  metrics : Pdq_telemetry.Metrics.t option;
      (** Registry for the network-wide probe (per-link utilization and
          queue depth, per-port active/paused flow counts) plus the
          run's counters and FCT histogram. *)
  metrics_every : float;
      (** Probe grid in simulated seconds. [metrics] and [port_probe]
          share one tick that walks the links once. *)
  port_probe : (now:float -> port_view -> unit) option;
      (** Called for every PDQ port on the telemetry grid. [None] (the
          default) schedules nothing; probing never perturbs the run —
          it only observes. Protocols without PDQ ports (RCP/D3/TCP)
          produce no views. *)
}

val no_telemetry : telemetry
(** No sinks, no metrics, no port probe; probe grid 1 ms. *)

type driver =
  spawn:(Context.flow_spec -> Context.flow) -> Pdq_telemetry.Trace.sink list
(** An application driver: called once per run, before the simulation
    starts, with the run's dynamic flow-spawn hook; the sinks it
    returns join the trace bus after the plain telemetry sinks.

    This is the sanctioned exception to the observe-only sink
    contract: a driver's sink {e may} react to trace events by calling
    [spawn], which registers a new flow (assigning the next flow id,
    pinning its route, emitting [Flow_admitted]) and starts it —
    immediately when [spec.start <= now]. Spawned flows join
    {!result.flows} like build-time ones. Because terminal flow
    events are emitted before the flow is counted closed, spawning
    from the terminal event of the last open flow keeps the run
    alive. [spawn] must only be called from sink
    callbacks (i.e. while the simulation is running), must not be
    called after the run returns, and — like any sink — must not
    consume the run's randomness. *)

type options = {
  seed : int;
  horizon : float;
      (** Hard simulated-time stop (safety net for never-finishing
          runs). The run stops earlier, as soon as every flow completed
          or terminated. *)
  faults : Pdq_faults.Fault_plan.t option;
      (** Timed fault injections: link failures, standing loss
          processes (the only source of packet loss in a run) and
          switch reboots, plus adversarial packet conditions. The
          adversarial events ({!Adversary}, on
          [Rng.create (seed lxor 0x0C4A05)]) are installed before the
          protocol, the others after it on a split of the run's rng
          (they alone emit [Trace.Fault]). Neither family draws
          anything when the plan holds none of its events, so [None]
          or an empty plan leaves the run bit-for-bit identical to a
          fault-free one. *)
  telemetry : telemetry;
      (** Structured tracing and metrics for the run. Replaces the old
          single-link [trace] option: bottleneck time series (Fig. 6/7)
          are now reconstructed from the generic [Flow_rx] events and
          metrics samples. *)
  driver : driver option;
      (** Application driver installed on the run (see {!driver}).
          [None] (the default) spawns nothing: the flow set is fixed at
          build time and the run is bit-for-bit identical to one
          without the hook. *)
}
(** RTT estimators start at 200 µs, and TCP's minimum RTO is 1 ms. *)

val default_options : options
(** seed 1, horizon 10 s, no faults, no telemetry, no driver. *)

type flow_result = {
  spec : Context.flow_spec;
  fct : float option;     (** Receiver-side completion − start. *)
  met_deadline : bool;    (** Completed before its absolute deadline. *)
  terminated : bool;      (** Early Termination / quenching. *)
  aborted : bool;         (** Watchdog gave up (dead path). *)
}

type result = {
  flows : flow_result array;
  application_throughput : float;
      (** Fraction of deadline-constrained flows meeting their
          deadline (1.0 when there are none). *)
  mean_fct : float;
      (** Mean completion time over completed flows, seconds. *)
  completed : int;
  aborted : int; (** Flows whose watchdog reached a terminal abort. *)
  counters : (string * int) list;
      (** Per-cause counters, sorted by key: watchdog aborts
          (["abort.syn"], ["abort.stall"]), fault events
          (["fault.switch_reboot"], ["fault.unroutable"]) and link
          drops by cause (["drop.loss"], ["drop.overflow"],
          ["drop.down"]). Empty for a clean fault-free run. *)
  sim_end : float;
  ctx : Context.t; (** For post-run inspection. *)
}

val execute :
  ?options:options ->
  topo:Pdq_net.Topology.t ->
  protocol ->
  Context.flow_spec list ->
  result
(** Build, simulate, measure. Deterministic for fixed inputs and
    seed.

    This is the low-level machinery under {!Pdq_exec.Scenario.run} —
    the single blessed entry point for experiments. Describe the
    experiment as a {!Pdq_exec.Scenario.t} and call [Scenario.run]
    (or [Sweep.map Scenario.run] for a batch across domains):
    scenarios are pure data, so they can be stored, printed and fanned
    out to worker domains. Per-run telemetry goes to [Scenario.run]
    as [?telemetry]. Call
    [execute] directly only to hand-build the topology (see
    [Scenario.build]). *)
