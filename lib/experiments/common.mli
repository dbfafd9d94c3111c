(** Shared plumbing for the per-figure experiment drivers: protocol
    rosters, workload construction, the row × protocol × seed sweep
    grid, repeated-seed averaging, binary search for the paper's
    "number of flows at 99% application throughput" metric, and
    tabular output. *)

val pdq_variants : (string * Pdq_transport.Runner.protocol) list
(** PDQ(Full), PDQ(ES+ET), PDQ(ES), PDQ(Basic) — most complete first.
    Every label in the lists below except ["RCP/D3"] and ["PDQ"] is
    {!Pdq_transport.Runner.protocol_name} of its protocol. *)

val packet_protocols : (string * Pdq_transport.Runner.protocol) list
(** The full roster of Fig. 3: the PDQ variants, D3, RCP, TCP. *)

val quick_protocols : (string * Pdq_transport.Runner.protocol) list
(** PDQ(Full), PDQ(Basic), D3, RCP, TCP — the trimmed roster of the
    quick capacity searches (Figs. 3c and 4a). *)

val fct_protocols : (string * Pdq_transport.Runner.protocol) list
(** PDQ(Full), PDQ(ES), PDQ(Basic), RCP/D3, TCP — the roster of the
    deadline-free FCT panels (Figs. 3d/e, 4b, 5b/c), where RCP and D3
    behave alike and share one column. *)

val baseline_protocols : (string * Pdq_transport.Runner.protocol) list
(** PDQ (Full) against RCP, D3 and TCP — the roster of the chaos and
    resilience tables. *)

type agg_workload = {
  specs : Pdq_transport.Context.flow_spec list;
  jobs : Pdq_sched.Fluid.job list;
      (** The same flows as single-bottleneck fluid jobs (sizes in
          bytes, deadlines in seconds) for the Optimal baseline. *)
}

val aggregation_workload :
  ?deadline_mean:float ->
  ?sizes:Pdq_workload.Size_dist.t ->
  ?deadlines:bool ->
  seed:int ->
  hosts:int array ->
  receiver:int ->
  flows:int ->
  unit ->
  agg_workload
(** Query-aggregation flows: sizes from [sizes] (default the paper's
    U[2 KB,198 KB]), all starting at t=0 towards [receiver]; when
    [deadlines] (default true) each flow gets an Exp([deadline_mean],
    floor 3 ms) deadline (default mean 20 ms). *)

val aggregation_scenario :
  ?deadline_mean:float ->
  ?sizes:Pdq_workload.Size_dist.t ->
  ?deadlines:bool ->
  ?seed:int ->
  flows:int ->
  Pdq_transport.Runner.protocol ->
  Pdq_exec.Scenario.t
(** The canonical Fig. 3 experiment as a scenario: the default
    12-server tree, the aggregation workload towards host 0, horizon
    5 s. Re-seed with {!Pdq_exec.Scenario.with_seed} to sweep. *)

val run_aggregation :
  ?jobs:int ->
  ?seeds:int list ->
  ?deadline_mean:float ->
  flows:int ->
  Pdq_transport.Runner.protocol ->
  (Pdq_transport.Runner.result -> float) ->
  float
(** Run {!aggregation_scenario} (default sizes, with deadlines) and
    average the extracted metric over the seeds (default [1;2;3]), on
    [jobs] domains. *)

val optimal_aggregation_throughput :
  ?jobs:int ->
  ?seeds:int list ->
  ?deadline_mean:float ->
  ?sizes:Pdq_workload.Size_dist.t ->
  flows:int ->
  unit ->
  float
(** Moore–Hodgson application throughput of the omniscient scheduler on
    the same workloads. *)

val optimal_aggregation_fct :
  ?seeds:int list ->
  ?sizes:Pdq_workload.Size_dist.t ->
  flows:int ->
  unit ->
  float
(** SRPT mean flow completion time of the omniscient scheduler
    (deadline-unconstrained case). *)

val flow_level :
  ?dt:float ->
  topo:Pdq_exec.Scenario.topo ->
  seed:int ->
  specs:
    (seed:int ->
    topo:Pdq_net.Topology.t ->
    hosts:int array ->
    Pdq_transport.Context.flow_spec list) ->
  Pdq_flowsim.Flowsim.proto ->
  Pdq_flowsim.Flowsim.result
(** Run [proto] in the flow-level simulator on the network
    {!Pdq_exec.Scenario.build_topo} builds for [topo] and [seed], over
    the flows [specs] generates: the same generator a
    {!Pdq_exec.Scenario.Generated} workload takes, so a driver hands
    both simulators one workload. Flow [i] takes ECMP choice [i];
    [dt] is {!Pdq_flowsim.Flowsim.run}'s step. *)

val chunks : int -> 'a list -> 'a list list
(** Split into consecutive groups of [k] (last group may be short). *)

val mean : float list -> float
(** Arithmetic mean, summed in list order. *)

val grid :
  ?jobs:int ->
  ?budget:Pdq_exec.Exec_opts.budget ->
  seeds:int list ->
  run:('row -> 'col -> int -> 'r) ->
  cell:('r list -> 'c) ->
  'row list ->
  'col list ->
  'c list list
(** [grid ~seeds ~run ~cell rows cols] evaluates [run row col seed]
    for every triple in one {!Pdq_exec.Sweep.map} (row-major, seeds
    innermost) and reduces each cell's per-seed results, in [seeds]
    order, with [cell]: one list per row, one value per column, the
    same for any [jobs]. [run] executes on a worker domain; [budget]
    bounds each call, and a failure raises
    {!Pdq_exec.Sweep.Sweep_errors}. *)

val search_max_flows : hi:int -> target:float -> (int -> float) -> int
(** Largest [n] in [1..hi] whose measured application throughput is at
    least [target] (binary search assuming monotonicity, as the paper's
    procedure does). Returns 0 when 1 fails and [hi] when [hi]
    passes. *)

type table = { title : string; header : string list; rows : string list list }

val pp_table : Format.formatter -> table -> unit
(** Render as aligned, tab-friendly text. *)

val cell : float -> string
(** Format a numeric cell with sensible precision. *)

val attribution_report : Pdq_exec.Scenario.t -> Pdq_forensics.Attribution.report
(** Run the scenario once with an in-memory trace sink attached and
    decompose every flow's completion time with
    {!Pdq_forensics.Attribution}. The sink never perturbs the run. *)

val attribution_table :
  title:string -> Pdq_forensics.Attribution.report -> table
(** Per-flow FCT components in milliseconds (plus a totals row), for
    {!pp_table}. *)
