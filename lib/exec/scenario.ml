module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Topology = Pdq_net.Topology
module Builder = Pdq_topo.Builder
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Fault_plan = Pdq_faults.Fault_plan
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Pattern = Pdq_workload.Pattern
module Job = Pdq_apps.Job
module Job_arrivals = Pdq_apps.Job_arrivals
module Job_tracker = Pdq_apps.Job_tracker
module Job_metrics = Pdq_apps.Job_metrics

type topo =
  | Tree of { tors : int; hosts_per_tor : int }
  | Bottleneck of { senders : int }
  | Fat_tree of { k : int }
  | Fat_tree_servers of { servers : int }
  | Bcube of { n : int; k : int }
  | Jellyfish of {
      switches : int;
      ports : int;
      net_ports : int;
      wiring_salt : int;
    }

let default_tree = Tree { tors = 4; hosts_per_tor = 3 }

let topo_name = function
  | Tree { tors; hosts_per_tor } ->
      Printf.sprintf "tree(%dx%d)" tors hosts_per_tor
  | Bottleneck { senders } -> Printf.sprintf "bottleneck(%d)" senders
  | Fat_tree { k } -> Printf.sprintf "fat-tree(k=%d)" k
  | Fat_tree_servers { servers } -> Printf.sprintf "fat-tree(>=%d)" servers
  | Bcube { n; k } -> Printf.sprintf "bcube(%d,%d)" n k
  | Jellyfish { switches; ports; net_ports; _ } ->
      Printf.sprintf "jellyfish(%d,%d,%d)" switches ports net_ports

let topo_names = [ "tree"; "bottleneck"; "fat-tree"; "bcube"; "jellyfish" ]

let unknown ~what ~names other =
  Error
    (Printf.sprintf "unknown %s %S (expected one of: %s)" what other
       (String.concat ", " names))

let topo_of_string s =
  match String.lowercase_ascii s with
  | "tree" -> Ok default_tree
  | "bottleneck" -> Ok (Bottleneck { senders = 16 })
  | "fat-tree" | "fattree" -> Ok (Fat_tree { k = 4 })
  | "bcube" -> Ok (Bcube { n = 2; k = 3 })
  | "jellyfish" ->
      Ok (Jellyfish { switches = 8; ports = 24; net_ports = 16; wiring_salt = 0 })
  | other -> unknown ~what:"topology" ~names:topo_names other

type sizes =
  | Uniform_paper of { mean_bytes : int }
  | Uniform of { lo : int; hi : int }
  | Fixed of int
  | Pareto of { tail_index : float; mean_bytes : int }
  | Vl2
  | Edu1

let size_dist = function
  | Uniform_paper { mean_bytes } -> Size_dist.uniform_paper ~mean_bytes
  | Uniform { lo; hi } -> Size_dist.uniform ~lo ~hi
  | Fixed n -> Size_dist.fixed n
  | Pareto { tail_index; mean_bytes } ->
      Size_dist.pareto ~tail_index ~mean_bytes ()
  | Vl2 -> Size_dist.vl2 ()
  | Edu1 -> Size_dist.edu1 ()

type deadlines = No_deadlines | Exp_deadlines of { mean : float; floor : float }

type pattern =
  | Aggregation
  | Stride of int
  | Staggered of float
  | Random_permutation
  | Random_pairs

let pattern_names =
  [ "aggregation"; "stride"; "staggered"; "permutation"; "pairs" ]

let pattern_of_string s =
  match String.lowercase_ascii s with
  | "aggregation" -> Ok Aggregation
  | "stride" -> Ok (Stride 1)
  | "staggered" -> Ok (Staggered 0.7)
  | "permutation" -> Ok Random_permutation
  | "pairs" -> Ok Random_pairs
  | other -> unknown ~what:"pattern" ~names:pattern_names other

type job_pattern = Partition_aggregate | Map_reduce | Pipeline

let job_pattern_name = function
  | Partition_aggregate -> "partition-aggregate"
  | Map_reduce -> "map-reduce"
  | Pipeline -> "pipeline"

let job_pattern_names = [ "partition-aggregate"; "map-reduce"; "pipeline" ]

let job_pattern_of_string s =
  match String.lowercase_ascii s with
  | "partition-aggregate" | "pa" -> Ok Partition_aggregate
  | "map-reduce" | "mapreduce" | "shuffle" -> Ok Map_reduce
  | "pipeline" -> Ok Pipeline
  | other -> unknown ~what:"job pattern" ~names:job_pattern_names other

type workload =
  | Synthetic of {
      pattern : pattern;
      flows : int;
      sizes : sizes;
      deadlines : deadlines;
    }
  | Explicit of Context.flow_spec list
  | Generated of {
      label : string;
      specs :
        seed:int ->
        topo:Topology.t ->
        hosts:int array ->
        Context.flow_spec list;
    }
  | Jobs of {
      pattern : job_pattern;
      count : int;
      width : int;
      depth : int;
      sizes : sizes;
      deadlines : deadlines;
      rate : float option;
    }

type faults =
  | No_faults
  | Flaps_and_reboots of {
      flap_mtbf : float option;
      flap_mttr : float;
      reboot_mtbf : float option;
      until : float;
    }
  | Fault_gen of {
      label : string;
      plan : seed:int -> Builder.built -> Fault_plan.t;
    }

type t = {
  name : string;
  topo : topo;
  protocol : Runner.protocol;
  workload : workload;
  seed : int;
  horizon : float;
  faults : faults;
}

let make ?name ?(topo = default_tree) ?(seed = 1) ?(horizon = 10.)
    ?(faults = No_faults) ~workload protocol =
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "%s on %s" (Runner.protocol_name protocol)
          (topo_name topo)
  in
  { name; topo; protocol; workload; seed; horizon; faults }

let with_seed t seed = { t with seed }

let build_topo spec ~sim ~seed =
  match spec with
  | Tree { tors; hosts_per_tor } ->
      Builder.single_rooted_tree ~tors ~hosts_per_tor ~sim ()
  | Bottleneck { senders } -> fst (Builder.single_bottleneck ~sim ~senders ())
  | Fat_tree { k } -> Builder.fat_tree ~sim ~k ()
  | Fat_tree_servers { servers } -> Builder.fat_tree_for_servers ~sim ~servers ()
  | Bcube { n; k } -> Builder.bcube ~sim ~n ~k ()
  | Jellyfish { switches; ports; net_ports; wiring_salt } ->
      Builder.jellyfish ~sim
        ~rng:(Rng.create (wiring_salt + seed))
        ~switches ~ports ~net_ports ()

(* Deadline, then size: the order every committed table and digest was
   computed with. Explicit [let]s fix it; OCaml leaves the evaluation
   order of a record's fields unspecified. *)
let specs_of_pairs ~rng ~sizes ~deadlines ~flows pairs =
  let pairs = Array.of_list pairs in
  List.init flows (fun i ->
      let p = pairs.(i mod Array.length pairs) in
      let deadline =
        Option.map (fun d -> Deadline_dist.sample d rng) deadlines
      in
      let size = Size_dist.sample sizes rng in
      { Context.src = p.Pattern.src; dst = p.Pattern.dst; size; deadline;
        start = 0. })

(* The [pdq_sim] workload recipe: one Rng seeded with the scenario
   seed drives pattern construction, then each flow's deadline and
   size draws ({!specs_of_pairs}). *)
let synthetic_specs ~pattern ~flows ~sizes ~deadlines ~seed ~topo ~hosts =
  let rng = Rng.create seed in
  let pairs =
    match pattern with
    | Aggregation -> Pattern.aggregation ~hosts ~receiver:hosts.(0) ~flows
    | Stride i -> Pattern.stride ~hosts ~i
    | Staggered p ->
        Pattern.staggered ~rack_of:(Topology.rack_of topo) ~hosts ~p ~rng
    | Random_permutation -> Pattern.random_permutation ~hosts ~rng
    | Random_pairs -> Pattern.random_pairs ~hosts ~flows ~rng
  in
  let deadlines =
    match deadlines with
    | No_deadlines -> None
    | Exp_deadlines { mean; floor } ->
        Some (Deadline_dist.exponential ~floor ~mean ())
  in
  specs_of_pairs ~rng ~sizes:(size_dist sizes) ~deadlines ~flows pairs

(* The [--workload jobs] recipe: one Rng seeded with the scenario seed
   draws, per job in arrival order, its deadline, then its hosts and
   flow sizes ({!Pdq_apps.Job_plan.compile}). Everything random is
   fixed here, at plan-compile time; runtime stage injection consumes
   no randomness, so job runs stay deterministic under any sweep
   parallelism. *)
let jobs_plans ~pattern ~count ~width ~depth ~sizes ~deadlines ~rate ~seed
    ~hosts =
  let rng = Rng.create seed in
  let dist = size_dist sizes in
  let ddist, floor =
    match deadlines with
    | No_deadlines -> (None, None)
    | Exp_deadlines { mean; floor } ->
        (Some (Deadline_dist.exponential ~floor ~mean ()), Some floor)
  in
  let job ~index =
    let deadline = Option.map (fun d -> Deadline_dist.sample d rng) ddist in
    let name = Printf.sprintf "job-%d" index in
    match pattern with
    | Partition_aggregate ->
        Job.partition_aggregate ?deadline ~rounds:depth ~name ~workers:width
          ~response_sizes:dist ()
    | Map_reduce ->
        Job.map_reduce ?deadline ~rounds:depth ~name ~mappers:width
          ~reducers:width ~shuffle_sizes:dist ~output_sizes:dist ()
    | Pipeline -> Job.pipeline ?deadline ~name ~depth ~sizes:dist ()
  in
  Job_arrivals.plans ~rng ~hosts ?rate ?floor ~count ~job ()

let resolve_faults t (built : Builder.built) =
  match t.faults with
  | No_faults -> None
  | Fault_gen { plan; _ } ->
      let p = plan ~seed:t.seed built in
      if Fault_plan.is_empty p then None else Some p
  | Flaps_and_reboots { flap_mtbf; flap_mttr; reboot_mtbf; until } ->
      let topo = built.Builder.topo in
      let flaps =
        match flap_mtbf with
        | Some mtbf ->
            Fault_plan.link_flaps
              (Rng.create (0x11AB + t.seed))
              ~links:(Fault_plan.switch_cables topo)
              ~mtbf ~mttr:flap_mttr ~until
        | None -> Fault_plan.empty
      in
      let reboots =
        match reboot_mtbf with
        | Some mtbf ->
            Fault_plan.switch_reboots
              (Rng.create (0x5EB0 + t.seed))
              ~switches:(Fault_plan.switches topo)
              ~mtbf ~until
        | None -> Fault_plan.empty
      in
      let plan = Fault_plan.merge flaps reboots in
      if Fault_plan.is_empty plan then None else Some plan

let build_ext t =
  let sim = Sim.create () in
  let built = build_topo t.topo ~sim ~seed:t.seed in
  let topo = built.Builder.topo and hosts = built.Builder.hosts in
  let tracker = ref None in
  let specs, driver =
    match t.workload with
    | Explicit l -> (l, None)
    | Synthetic { pattern; flows; sizes; deadlines } ->
        ( synthetic_specs ~pattern ~flows ~sizes ~deadlines ~seed:t.seed ~topo
            ~hosts,
          None )
    | Generated { specs; _ } -> (specs ~seed:t.seed ~topo ~hosts, None)
    | Jobs { pattern; count; width; depth; sizes; deadlines; rate } ->
        let plans =
          jobs_plans ~pattern ~count ~width ~depth ~sizes ~deadlines ~rate
            ~seed:t.seed ~hosts
        in
        let driver ~spawn =
          let tr = Job_tracker.create ~spawn plans in
          tracker := Some tr;
          [ Job_tracker.sink tr ]
        in
        (Job_tracker.initial_specs plans, Some driver)
  in
  let options =
    {
      Runner.seed = t.seed;
      horizon = t.horizon;
      faults = resolve_faults t built;
      telemetry = Runner.no_telemetry;
      driver;
    }
  in
  (built, specs, options, tracker)

let build t =
  let built, specs, options, _ = build_ext t in
  (built, specs, options)

(* The one run path. It builds the scenario, attaches [monitor]'s
   sinks when checking, and executes, everything under [budget]: the
   simulator reads its cancel hook when the build creates it, so the
   budget must already be installed there. *)
let execute ?(telemetry = Runner.no_telemetry) ?budget ?monitor t =
  let go () =
    let built, specs, options, tracker = build_ext t in
    let telemetry =
      match monitor with
      | Some m -> Pdq_check.Invariants.telemetry m ~base:telemetry
      | None -> telemetry
    in
    let topo = built.Builder.topo in
    let options = { options with Runner.telemetry } in
    (Runner.execute ~options ~topo t.protocol specs, topo, tracker)
  in
  match budget with None -> go () | Some b -> Exec_opts.with_budget b go

let run ?telemetry ?budget t =
  let result, _, _ = execute ?telemetry ?budget t in
  result

let run_jobs ?telemetry ?budget t =
  let result, _, tracker = execute ?telemetry ?budget t in
  let report =
    match !tracker with
    | Some tr -> Job_tracker.report tr
    | None -> Job_metrics.of_outcomes [||]
  in
  (result, report)

type checked = {
  result : Runner.result;
  violations : Pdq_check.Report.violation list;
  oracle : Pdq_check.Oracle.t;
  job_report : Job_metrics.report option;
}

let run_checked ?telemetry ?budget t =
  let monitor = Pdq_check.Invariants.create () in
  let result, topo, tracker = execute ?telemetry ?budget ~monitor t in
  let job_report = Option.map Job_tracker.report !tracker in
  let violations = Pdq_check.Invariants.finalize monitor ~result ~topo in
  (* M-PDQ stripes a flow over several paths, so no single path's
     contention-free bound applies per flow; keep only the aggregate
     references there. *)
  let per_flow = match t.protocol with Runner.Mpdq _ -> false | _ -> true in
  let oracle = Pdq_check.Oracle.check ~per_flow ~result ~topo () in
  {
    result;
    violations = violations @ oracle.Pdq_check.Oracle.violations;
    oracle;
    job_report;
  }

let protocol_names =
  [
    "pdq"; "pdq-basic"; "pdq-es"; "pdq-es-et"; "mpdq"; "rcp"; "d3"; "tcp";
    "pdq-broken";
  ]

let protocol_of_string ?(subflows = 3) name =
  match String.lowercase_ascii name with
  | "pdq" | "pdq-full" -> Ok (Runner.Pdq Pdq_core.Config.full)
  | "pdq-basic" -> Ok (Runner.Pdq Pdq_core.Config.basic)
  | "pdq-es" -> Ok (Runner.Pdq Pdq_core.Config.es)
  | "pdq-es-et" -> Ok (Runner.Pdq Pdq_core.Config.es_et)
  | "mpdq" | "m-pdq" -> Ok (Runner.mpdq ~subflows ())
  | "pdq-broken" -> Ok (Runner.Pdq Pdq_check.Fixtures.broken_allocator)
  | "rcp" -> Ok Runner.Rcp
  | "d3" -> Ok Runner.D3
  | "tcp" -> Ok Runner.Tcp
  | other -> unknown ~what:"protocol" ~names:protocol_names other

let workload_desc = function
  | Synthetic { pattern; flows; _ } ->
      let p =
        match pattern with
        | Aggregation -> "aggregation"
        | Stride i -> Printf.sprintf "stride(%d)" i
        | Staggered p -> Printf.sprintf "staggered(%.2g)" p
        | Random_permutation -> "permutation"
        | Random_pairs -> "pairs"
      in
      Printf.sprintf "%d %s flows" flows p
  | Explicit l -> Printf.sprintf "%d explicit flows" (List.length l)
  | Generated { label; _ } -> label
  | Jobs { pattern; count; width; depth; rate; _ } ->
      Printf.sprintf "%d %s jobs (width %d, depth %d%s)" count
        (job_pattern_name pattern) width depth
        (match rate with
        | None -> ""
        | Some r -> Printf.sprintf ", %g jobs/s" r)

(* Content hash identifying a scenario in a sweep checkpoint. Scenarios
   can embed closures (Generated workloads, Fault_gen plans), so the
   primary key marshals the whole value with [Closures] — exact, but
   only stable within one binary, which is the resume use case; across
   rebuilds a changed key merely forces a (safe) re-run. When closure
   marshaling is impossible the printable description plus the plain
   run options stands in; bespoke generators must then carry distinct
   labels. *)
let digest t =
  let bytes =
    match Marshal.to_string t [ Marshal.Closures ] with
    | s -> s
    | exception _ ->
        Marshal.to_string
          ( t.name,
            topo_name t.topo,
            Runner.protocol_name t.protocol,
            workload_desc t.workload,
            t.seed,
            t.horizon )
          []
  in
  Digest.to_hex (Digest.string bytes)

(* Checkpoint codec for results. Everything measurable round-trips
   bit-for-bit through Marshal of plain data; the live [ctx] is per-run
   simulator state and cannot be reconstituted, so decoded results
   carry a shared empty placeholder context (post-run inspection is
   only meaningful on freshly executed slots anyway). *)
let placeholder_ctx =
  lazy
    (let sim = Sim.create () in
     let topo = Topology.create ~sim () in
     Context.create ~sim ~topo ~rng:(Rng.create 0) ())

let result_codec =
  let encode (r : Runner.result) =
    Marshal.to_string
      ( r.Runner.flows,
        r.Runner.application_throughput,
        r.Runner.mean_fct,
        r.Runner.completed,
        r.Runner.aborted,
        r.Runner.counters,
        r.Runner.sim_end )
      []
  and decode s =
    let ( flows,
          application_throughput,
          mean_fct,
          completed,
          aborted,
          counters,
          sim_end ) :
        Runner.flow_result array
        * float
        * float
        * int
        * int
        * (string * int) list
        * float =
      Marshal.from_string s 0
    in
    {
      Runner.flows;
      application_throughput;
      mean_fct;
      completed;
      aborted;
      counters;
      sim_end;
      ctx = Lazy.force placeholder_ctx;
    }
  in
  { Task.encode; decode }
