(** First-class experiment descriptions.

    A {!t} is pure data (plus, where a driver needs a bespoke workload
    or fault schedule, a pure generator function): it names a topology
    family with its parameters, a workload, a protocol and the run
    options — but holds {e no} live simulator state. {!run} builds the
    {!Pdq_engine.Sim.t}, the topology and the flow specs internally,
    which is what makes a scenario shippable to a worker domain: a
    list of scenarios evaluated by [Sweep.map run] on [n] domains returns
    results bit-for-bit identical to evaluating them sequentially.

    This is the preferred front door for experiments;
    {!Pdq_transport.Runner.execute} remains for callers that hand-build
    a topology. *)

(** {1 Topology specifications} *)

type topo =
  | Tree of { tors : int; hosts_per_tor : int }
      (** Fig. 2a single-rooted tree; the paper's default is
          [Tree {tors = 4; hosts_per_tor = 3}]. *)
  | Bottleneck of { senders : int }
      (** Fig. 2b: [senders] hosts, one switch, one receiver (the
          receiver is the last element of the built host array). *)
  | Fat_tree of { k : int }
  | Fat_tree_servers of { servers : int }
      (** Smallest even-k fat-tree with at least [servers] hosts. *)
  | Bcube of { n : int; k : int }
  | Jellyfish of {
      switches : int;
      ports : int;
      net_ports : int;
      wiring_salt : int;
    }
      (** Random regular graph, wired from
          [Rng.create (wiring_salt + seed)]; a salt of 0 ties the
          wiring directly to the scenario seed. *)

val default_tree : topo
(** [Tree {tors = 4; hosts_per_tor = 3}] — the 12-server tree. *)

val topo_of_string : string -> (topo, string) result
(** Parse a CLI topology name ("tree", "bottleneck", "fat-tree",
    "bcube", "jellyfish") into the evaluation's default parameters for
    that family. The error message lists the valid names. *)

val build_topo :
  topo -> sim:Pdq_engine.Sim.t -> seed:int -> Pdq_topo.Builder.built
(** The network a scenario with this spec and seed runs on ([seed] only
    wires {!Jellyfish}). Flow-level runs build theirs here too, so both
    simulators see the same graph. *)

(** {1 Workload specifications} *)

type sizes =
  | Uniform_paper of { mean_bytes : int }
      (** The paper's U[2 KB, 2·mean − 2 KB]. *)
  | Uniform of { lo : int; hi : int }
  | Fixed of int
  | Pareto of { tail_index : float; mean_bytes : int }
  | Vl2
  | Edu1

val size_dist : sizes -> Pdq_workload.Size_dist.t

type deadlines =
  | No_deadlines
  | Exp_deadlines of { mean : float; floor : float }
      (** Exponential with a floor, in seconds (the paper's default is
          mean 20 ms, floor 3 ms). *)

type pattern =
  | Aggregation  (** Everyone sends to the first host. *)
  | Stride of int
  | Staggered of float
  | Random_permutation
  | Random_pairs

val pattern_names : string list
(** The CLI pattern names {!pattern_of_string} accepts. *)

val pattern_of_string : string -> (pattern, string) result
(** "aggregation", "stride", "staggered", "permutation", "pairs". The
    error message lists the valid names. *)

val specs_of_pairs :
  rng:Pdq_engine.Rng.t ->
  sizes:Pdq_workload.Size_dist.t ->
  deadlines:Pdq_workload.Deadline_dist.t option ->
  flows:int ->
  Pdq_workload.Pattern.pair list ->
  Pdq_transport.Context.flow_spec list
(** [flows] flows cycling [pairs] in order, all starting at t = 0. Each
    flow draws from [rng] its deadline (only when [deadlines] is
    given), then its size. *)

(** {1 Application-level jobs} *)

type job_pattern =
  | Partition_aggregate
      (** [depth] rounds of request fan-out to [width] workers followed
          by response fan-in ({!Pdq_apps.Job.partition_aggregate}). *)
  | Map_reduce
      (** [depth] rounds of a [width]×[width] all-to-all shuffle
          followed by an output fan-in ({!Pdq_apps.Job.map_reduce}). *)
  | Pipeline
      (** [depth] sequential single-flow transfer stages; [width] is
          ignored ({!Pdq_apps.Job.pipeline}). *)

val job_pattern_name : job_pattern -> string

val job_pattern_names : string list
(** The CLI job-pattern names {!job_pattern_of_string} accepts. *)

val job_pattern_of_string : string -> (job_pattern, string) result
(** "partition-aggregate" (or "pa"), "map-reduce", "pipeline". The
    error message lists the valid names. *)

type workload =
  | Synthetic of {
      pattern : pattern;
      flows : int;
      sizes : sizes;
      deadlines : deadlines;
    }
      (** Pattern pairs cycled over [flows] simultaneous flows, sizes
          and deadlines drawn from one [Rng] seeded with the scenario
          seed — exactly the [pdq_sim] command-line workload. *)
  | Explicit of Pdq_transport.Context.flow_spec list
      (** Fixed flow list (host node ids must match the topology). *)
  | Generated of {
      label : string;
      specs :
        seed:int ->
        topo:Pdq_net.Topology.t ->
        hosts:int array ->
        Pdq_transport.Context.flow_spec list;
    }
      (** Bespoke generator for drivers with their own RNG recipe. The
          function must be pure (derive everything from its arguments)
          so the scenario stays shippable across domains. *)
  | Jobs of {
      pattern : job_pattern;
      count : int;  (** Number of jobs. *)
      width : int;  (** Fan-in workers / mappers per stage. *)
      depth : int;  (** Rounds (or pipeline depth). *)
      sizes : sizes;  (** Response / shuffle flow sizes. *)
      deadlines : deadlines;
          (** Per-{e job} deadline draw; each job's deadline is split
              into stage and per-flow deadlines by
              {!Pdq_apps.Job.stage_deadlines} (the [Exp_deadlines]
              floor also clips the stage slices). *)
      rate : float option;
          (** Poisson job-arrival rate in jobs/s; [None] = all jobs
              arrive at t = 0. *)
    }
      (** Application-level jobs ({!Pdq_apps}): [count] jobs compiled
          to {!Pdq_apps.Job_plan.t}s at build time — hosts, sizes,
          arrivals and deadlines all drawn from one [Rng] seeded with
          the scenario seed — then executed at runtime by a
          {!Pdq_apps.Job_tracker} that injects each stage the moment
          its dependencies finish. Use {!run_jobs} (or {!run_checked})
          to get the job-level report. *)

(** {1 Fault specifications} *)

type faults =
  | No_faults
  | Flaps_and_reboots of {
      flap_mtbf : float option;
      flap_mttr : float;
      reboot_mtbf : float option;
      until : float;
    }
      (** Memoryless link flapping on switch-switch cables and/or
          switch crash-reboots, seeded from the scenario seed (the
          [pdq_sim] fault flags). *)
  | Fault_gen of {
      label : string;
      plan : seed:int -> Pdq_topo.Builder.built -> Pdq_faults.Fault_plan.t;
    }
      (** Bespoke pure plan generator, called on the built topology.
          Packet loss (Fig. 9's standing Bernoulli drops included) is a
          {!Pdq_faults.Fault_plan.Set_loss} event of such a plan, and
          adversarial packet conditions (the chaos degradation sweeps,
          the fuzzer's cases) are its adversarial events; an empty plan
          is no plan at all. *)

(** {1 Scenarios} *)

type t = {
  name : string;
  topo : topo;
  protocol : Pdq_transport.Runner.protocol;
  workload : workload;
  seed : int;
  horizon : float;
  faults : faults;
}

val make :
  ?name:string ->
  ?topo:topo ->
  ?seed:int ->
  ?horizon:float ->
  ?faults:faults ->
  workload:workload ->
  Pdq_transport.Runner.protocol ->
  t
(** Defaults mirror {!Pdq_transport.Runner.default_options}: seed 1,
    horizon 10 s, no faults; topology {!default_tree}. [name] defaults to
    ["<protocol> on <topo>"]. *)

val with_seed : t -> int -> t
(** The same scenario under a different seed (the unit of a
    seed-averaging sweep). *)

val build :
  t ->
  Pdq_topo.Builder.built
  * Pdq_transport.Context.flow_spec list
  * Pdq_transport.Runner.options
(** Materialize the scenario: construct the simulator + topology,
    expand the workload and resolve the fault spec into runner
    options (no telemetry attached). For a {!Jobs} workload the specs
    are only the initially runnable stages and the options carry the
    {!Pdq_apps.Job_tracker} driver that injects the rest. Exposed for
    tests and inspection; {!run} is [Runner.execute] applied to this. *)

val run :
  ?telemetry:Pdq_transport.Runner.telemetry ->
  ?budget:Exec_opts.budget ->
  t ->
  Pdq_transport.Runner.result
(** Build and simulate. Deterministic: same scenario (and telemetry
    sinks, which never perturb a run) ⇒ bit-for-bit identical result,
    on any domain. [telemetry] is passed here, not stored in the
    scenario, because sinks (channels, memory rings) are per-run
    mutable state. A [budget] bounds the whole run, build included
    ([Sim.Cancelled] on a trip). Everything that acts on the run —
    faults and adversarial conditions alike — is in the scenario's
    {!faults}; post-run inspection goes through the result's
    [ctx] ({!Pdq_transport.Context.topo}). *)

val run_jobs :
  ?telemetry:Pdq_transport.Runner.telemetry ->
  ?budget:Exec_opts.budget ->
  t ->
  Pdq_transport.Runner.result * Pdq_apps.Job_metrics.report
(** {!run}, also returning the job-level report. The result is
    bit-for-bit the one {!run} returns (the tracker only observes the
    bus and replays the plan; it consumes no randomness). On a
    non-{!Jobs} workload the report is empty. *)

type checked = {
  result : Pdq_transport.Runner.result;
  violations : Pdq_check.Report.violation list;
      (** All invariant and per-flow oracle violations, time-sorted
          (empty = the run validated). *)
  oracle : Pdq_check.Oracle.t;
      (** Per-flow bounds and the centralized EDF/SJF references
          (emulation gap). *)
  job_report : Pdq_apps.Job_metrics.report option;
      (** Job-level outcomes, present exactly when the workload is
          {!Jobs}. *)
}

val run_checked :
  ?telemetry:Pdq_transport.Runner.telemetry ->
  ?budget:Exec_opts.budget ->
  t ->
  checked
(** {!run} with the validation subsystem attached: a
    {!Pdq_check.Invariants} monitor rides the trace bus and the
    per-port probe, and the finished run is checked against the
    {!Pdq_check.Oracle} bounds. Monitoring only observes — the
    [result] is bit-for-bit the one {!run} returns. [telemetry] is
    composed with (not replaced by) the monitor's sinks; its
    [metrics_every] field also sets the port-probe grid. *)

val digest : t -> string
(** Content hash of the scenario (seed included) keying its slot in a
    sweep checkpoint file. Exact — it covers closures via
    [Marshal.Closures] — but stable only within one binary; after a
    rebuild a changed key just forces a safe re-run of that slot. *)

val result_codec : Pdq_transport.Runner.result Task.codec
(** Checkpoint serialization for run results. Round-trips every
    measurable field (flows, FCTs, throughput, counters, [sim_end])
    bit-for-bit; the live [ctx] is not serializable, so decoded
    results share an empty placeholder context. *)

val protocol_of_string :
  ?subflows:int -> string -> (Pdq_transport.Runner.protocol, string) result
(** "pdq", "pdq-basic", "pdq-es", "pdq-es-et", "mpdq" (with
    [subflows], default 3), "rcp", "d3", "tcp" — plus "pdq-broken",
    the {!Pdq_check.Fixtures.broken_allocator} used to validate the
    validators. The error message lists the valid names. *)
