module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Builder = Pdq_topo.Builder
module Config = Pdq_core.Config
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Fluid = Pdq_sched.Fluid
module Flowsim = Pdq_flowsim.Flowsim
module Router = Pdq_net.Router
module Rng = Pdq_engine.Rng
module Sim = Pdq_engine.Sim
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep

let named protocols =
  List.map (fun p -> (Runner.protocol_name p, p)) protocols

let pdq_variants =
  named (List.map (fun c -> Runner.Pdq c) Config.[ full; es_et; es; basic ])

let packet_protocols = pdq_variants @ named Runner.[ D3; Rcp; Tcp ]

let quick_protocols =
  named Runner.[ Pdq Config.full; Pdq Config.basic; D3; Rcp; Tcp ]

let fct_protocols =
  named Runner.[ Pdq Config.full; Pdq Config.es; Pdq Config.basic ]
  @ [ ("RCP/D3", Runner.Rcp); ("TCP", Runner.Tcp) ]

let baseline_protocols =
  ("PDQ", Runner.Pdq Config.full) :: named Runner.[ Rcp; D3; Tcp ]

(* Goodput of a 1 Gbps link under the 40-byte TCP/IP header: the
   omniscient scheduler pays payload efficiency but no scheduling
   header. *)
let goodput_rate = 1e9 *. 1460. /. 1500.

type agg_workload = {
  specs : Context.flow_spec list;
  jobs : Fluid.job list;
}

let aggregation_workload ?(deadline_mean = 0.02) ?sizes ?(deadlines = true)
    ~seed ~hosts ~receiver ~flows () =
  let sizes =
    match sizes with
    | Some s -> s
    | None -> Size_dist.uniform_paper ~mean_bytes:100_000
  in
  let rng = Rng.create (0x5EED + (seed * 7919)) in
  let ddist = Deadline_dist.exponential ~mean:deadline_mean () in
  let pairs = Pdq_workload.Pattern.aggregation ~hosts ~receiver ~flows in
  let specs, jobs =
    List.mapi
      (fun i (p : Pdq_workload.Pattern.pair) ->
        let size = Size_dist.sample sizes rng in
        let deadline =
          if deadlines then Some (Deadline_dist.sample ddist rng) else None
        in
        ( {
            Context.src = p.Pdq_workload.Pattern.src;
            dst = p.Pdq_workload.Pattern.dst;
            size;
            deadline;
            start = 0.;
          },
          Fluid.job ?deadline ~id:i ~size:(float_of_int size) () ))
      pairs
    |> List.split
  in
  { specs; jobs }

let default_seeds = [ 1; 2; 3 ]

let aggregation_scenario ?(deadline_mean = 0.02) ?sizes ?(deadlines = true)
    ?(seed = 1) ~flows protocol =
  Scenario.make
    ~name:
      (Printf.sprintf "%s aggregation x%d" (Runner.protocol_name protocol)
         flows)
    ~seed ~horizon:5.
    ~workload:
      (Scenario.Generated
         {
           label = Printf.sprintf "%d aggregation flows" flows;
           specs =
             (fun ~seed ~topo:_ ~hosts ->
               (aggregation_workload ~deadline_mean ?sizes ~deadlines ~seed
                  ~hosts ~receiver:hosts.(0) ~flows ())
                 .specs);
         })
    protocol

let run_aggregation ?jobs ?(seeds = default_seeds) ?(deadline_mean = 0.02)
    ~flows protocol metric =
  let scenario = aggregation_scenario ~deadline_mean ~flows protocol in
  Sweep.average ?jobs ~seeds (fun seed ->
      metric (Scenario.run (Scenario.with_seed scenario seed)))

(* The fluid baselines only need the workload, not a packet run; the
   tree is built per seed solely for its host ids. *)
let fluid_workload ?(deadline_mean = 0.02) ?sizes ~deadlines ~flows seed =
  let built =
    Scenario.build_topo Scenario.default_tree ~sim:(Sim.create ()) ~seed
  in
  let hosts = built.Builder.hosts in
  aggregation_workload ~deadline_mean ?sizes ~deadlines ~seed ~hosts
    ~receiver:hosts.(0) ~flows ()

let optimal_aggregation_throughput ?jobs ?(seeds = default_seeds)
    ?(deadline_mean = 0.02) ?sizes ~flows () =
  Sweep.average ?jobs ~seeds (fun seed ->
      let wl = fluid_workload ~deadline_mean ?sizes ~deadlines:true ~flows seed in
      (* Fluid job sizes are bytes: rate in bytes/second. *)
      Fluid.optimal_deadline_throughput ~rate:(goodput_rate /. 8.) wl.jobs)

let optimal_aggregation_fct ?(seeds = default_seeds) ?sizes ~flows () =
  Sweep.average ~seeds (fun seed ->
      let wl = fluid_workload ?sizes ~deadlines:false ~flows seed in
      Fluid.mean_completion_time (Fluid.srpt ~rate:(goodput_rate /. 8.) wl.jobs))

(* Flow i is pinned to ECMP choice i, as the packet-level router pins
   it on the same topology. *)
let flow_level ?dt ~topo ~seed ~specs proto =
  let built = Scenario.build_topo topo ~sim:(Sim.create ()) ~seed in
  let topo = built.Builder.topo in
  let router = Router.create topo in
  specs ~seed ~topo ~hosts:built.Builder.hosts
  |> List.mapi (fun i (s : Context.flow_spec) ->
         {
           Flowsim.fs_id = i;
           path =
             Router.path_links router ~src:s.Context.src ~dst:s.dst ~choice:i;
           size = s.size;
           deadline = s.deadline;
           start = s.start;
         })
  |> Flowsim.run ?dt ~seed (Flowsim.net_of_topology topo) proto

let chunks k xs =
  let rec take k xs =
    if k = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: tl ->
          let hd, rest = take (k - 1) tl in
          (x :: hd, rest)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let row, rest = take k xs in
        go (row :: acc) rest
  in
  go [] xs

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let grid ?jobs ?budget ~seeds ~run ~cell rows cols =
  let results =
    Sweep.map ?jobs ?budget
      (fun (row, col, seed) -> run row col seed)
      (List.concat_map
         (fun row ->
           List.concat_map
             (fun col -> List.map (fun seed -> (row, col, seed)) seeds)
             cols)
         rows)
    |> Array.of_list
  in
  let per_cell = List.length seeds and per_row = List.length cols in
  List.mapi
    (fun i _ ->
      List.init per_row (fun j ->
          cell
            (List.init per_cell (fun k ->
                 results.((((i * per_row) + j) * per_cell) + k)))))
    rows

let search_max_flows ~hi ~target f =
  if f 1 < target then 0
  else begin
    (* Invariant: f lo >= target; answer in [lo, hi]. *)
    let lo = ref 1 and hi = ref hi in
    (* If even hi passes, report hi. *)
    if f !hi >= target then !hi
    else begin
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if f mid >= target then lo := mid else hi := mid
      done;
      !lo
    end
  end

type table = { title : string; header : string list; rows : string list list }

let pp_table ppf t =
  Format.fprintf ppf "@.== %s ==@." t.title;
  let all = t.header :: t.rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i c -> width.(i) <- max width.(i) (String.length c)))
    all;
  let print_row r =
    List.iteri
      (fun i c -> Format.fprintf ppf "%-*s  " width.(i) c)
      r;
    Format.fprintf ppf "@."
  in
  print_row t.header;
  print_row (List.init ncols (fun i -> String.make width.(i) '-'));
  List.iter print_row t.rows

let cell v =
  if Float.is_integer v && abs_float v < 1e7 then Printf.sprintf "%.0f" v
  else if abs_float v >= 100. then Printf.sprintf "%.1f" v
  else if abs_float v >= 1. then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.4f" v

(* Forensic attribution: run the scenario once with an in-memory trace
   sink and fold the event stream into an FCT decomposition. The sink
   never perturbs the run, so the attributed run is the same run the
   figure drivers measure. *)
let attribution_report scenario =
  let mem = Pdq_telemetry.Trace.memory () in
  let telemetry = { Runner.no_telemetry with Runner.sinks = [ mem ] } in
  ignore (Scenario.run ~telemetry scenario);
  Pdq_forensics.Attribution.of_events (Pdq_telemetry.Trace.memory_events mem)

let attribution_table ~title (r : Pdq_forensics.Attribution.report) =
  let open Pdq_forensics.Attribution in
  let ms x = cell (1e3 *. x) in
  let row (f : flow_report) =
    [
      string_of_int f.flow;
      ms f.fct;
      ms f.c.handshake;
      ms f.c.serialization;
      ms f.c.paused;
      ms f.c.recovery;
      ms f.c.downtime;
      (match f.ideal with Some i -> ms i | None -> "-");
    ]
  in
  let totals =
    [
      "total";
      ms r.total_fct;
      ms r.totals.handshake;
      ms r.totals.serialization;
      ms r.totals.paused;
      ms r.totals.recovery;
      ms r.totals.downtime;
      "-";
    ]
  in
  {
    title;
    header =
      [ "flow"; "fct"; "hshake"; "send"; "paused"; "recov"; "down"; "ideal" ];
    rows = List.map row r.flows @ [ totals ];
  }
