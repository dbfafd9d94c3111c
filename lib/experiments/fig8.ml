module Runner = Pdq_transport.Runner
module Pattern = Pdq_workload.Pattern
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Flowsim = Pdq_flowsim.Flowsim
module Rng = Pdq_engine.Rng
module Stats = Pdq_engine.Stats
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep

type topo_family = Fat_tree | Bcube | Jellyfish

let family_topo family ~servers =
  match family with
  | Fat_tree -> Scenario.Fat_tree_servers { servers }
  | Bcube ->
      (* Dual-port BCube(n,1): n^2 servers. *)
      let n = max 2 (int_of_float (ceil (sqrt (float_of_int servers)))) in
      Scenario.Bcube { n; k = 1 }
  | Jellyfish ->
      (* 24-port switches, 2:1 network:server ports -> 8 hosts each;
         wiring salt 77 reproduces the historical wiring rng. *)
      let switches = max 3 ((servers + 7) / 8) in
      Scenario.Jellyfish
        { switches; ports = 24; net_ports = 16; wiring_salt = 77 }

(* One workload for both simulators: [pairs] draws the pairing (random
   permutations or random pairs) from its own rng, and a second stream
   draws each flow's deadline and size. *)
let workload ~deadline_mean ~pairs ~seed ~topo:_ ~hosts =
  let pairs = pairs ~seed ~hosts in
  Scenario.specs_of_pairs
    ~rng:(Rng.create (0xF8 + (seed * 37)))
    ~sizes:(Size_dist.uniform_paper ~mean_bytes:100_000)
    ~deadlines:
      (Option.map
         (fun mean -> Deadline_dist.exponential ~mean ())
         deadline_mean)
    ~flows:(List.length pairs) pairs

(* [per_server] random permutations, deadline-free; [salt] seeds the
   pairing rng. *)
let perm_workload ~per_server ~salt =
  workload ~deadline_mean:None ~pairs:(fun ~seed ~hosts ->
      let rng = Rng.create (salt + seed) in
      List.concat
        (List.init per_server (fun _ ->
             Pattern.random_permutation ~hosts ~rng)))

let packet_run family ~servers ~seed ~label ~specs proto =
  Scenario.run
    (Scenario.make ~name:label ~seed ~horizon:5.
       ~topo:(family_topo family ~servers)
       ~workload:(Scenario.Generated { label; specs })
       proto)

let flow_run family ~servers ~seed ~specs proto =
  Common.flow_level ~topo:(family_topo family ~servers) ~seed ~specs proto

(* (a) deadline-constrained capacity vs size: concurrent random-pair
   deadline flows; search the count sustaining 99% AT. Each table cell
   is an independent binary search, so the cells fan out over the
   domain pool. *)
let fig8a ?jobs ~quick () =
  let sizes_list = if quick then [ 16; 54; 128 ] else [ 16; 54; 128; 250; 432; 1024 ] in
  let pkt_cap = if quick then 54 else 128 in
  let seed = 1 in
  let specs flows =
    workload ~deadline_mean:(Some 0.02) ~pairs:(fun ~seed ~hosts ->
        Pattern.random_pairs ~hosts ~flows ~rng:(Rng.create (11 + seed)))
  in
  let flow_cap servers flows proto =
    (flow_run Fat_tree ~servers ~seed ~specs:(specs flows) proto)
      .Flowsim.application_throughput
  in
  let pkt_cap_run servers flows proto =
    (packet_run Fat_tree ~servers ~seed
       ~label:(Printf.sprintf "pairs x%d" flows)
       ~specs:(specs flows) proto)
      .Runner.application_throughput
  in
  let hi servers = max 16 (servers * 2) in
  let cell_thunks =
    List.concat_map
      (fun servers ->
        let fl proto () =
          string_of_int
            (Common.search_max_flows ~hi:(hi servers) ~target:0.99 (fun n ->
                 flow_cap servers n proto))
        in
        let pk proto () =
          if servers > pkt_cap then "-"
          else
            string_of_int
              (Common.search_max_flows ~hi:(hi servers) ~target:0.99 (fun n ->
                   pkt_cap_run servers n proto))
        in
        [
          pk (Runner.Pdq Pdq_core.Config.full);
          fl (Flowsim.Pdq Flowsim.pdq_defaults);
          pk Runner.D3;
          fl Flowsim.D3;
          pk Runner.Rcp;
          fl Flowsim.Rcp;
        ])
      sizes_list
  in
  let cells = Sweep.map ?jobs (fun f -> f ()) cell_thunks in
  let rows =
    List.map2
      (fun servers row -> string_of_int servers :: row)
      sizes_list
      (Common.chunks 6 cells)
  in
  {
    Common.title =
      "Fig 8a - flows at 99% application throughput vs network size (fat-tree)";
    header =
      [
        "servers"; "PDQ-pkt"; "PDQ-flow"; "D3-pkt"; "D3-flow"; "RCP-pkt";
        "RCP-flow";
      ];
    rows;
  }

let fct_table ?jobs ~title family ~quick () =
  let sizes_list =
    if quick then [ 16; 64 ] else [ 16; 64; 256; 1024; 4096 ]
  in
  let sizes_list =
    match family with
    | Fat_tree -> if quick then [ 16; 54; 128 ] else [ 16; 54; 128; 432; 1024 ]
    | Bcube | Jellyfish -> sizes_list
  in
  let pkt_cap = if quick then 64 else 144 in
  let per_server = if quick then 4 else 10 in
  let seed = 1 in
  let specs = perm_workload ~per_server ~salt:3 in
  let label = Printf.sprintf "perm x%d" per_server in
  let cell_thunks =
    List.concat_map
      (fun servers ->
        let pkt proto () =
          if servers > pkt_cap then "-"
          else
            Common.cell
              (1e3
              *. (packet_run family ~servers ~seed ~label ~specs proto)
                   .Runner.mean_fct)
        in
        let flow proto () =
          Common.cell
            (1e3
            *. (flow_run family ~servers ~seed ~specs proto).Flowsim.mean_fct)
        in
        [
          pkt (Runner.Pdq Pdq_core.Config.full);
          flow (Flowsim.Pdq Flowsim.pdq_defaults);
          pkt Runner.Rcp;
          flow Flowsim.Rcp;
        ])
      sizes_list
  in
  let cells = Sweep.map ?jobs (fun f -> f ()) cell_thunks in
  let rows =
    List.map2
      (fun servers row -> string_of_int servers :: row)
      sizes_list
      (Common.chunks 4 cells)
  in
  {
    Common.title = title;
    header = [ "servers"; "PDQ-pkt[ms]"; "PDQ-flow[ms]"; "RCP/D3-pkt[ms]"; "RCP/D3-flow[ms]" ];
    rows;
  }

let fig8b ?jobs ~quick () =
  fct_table ?jobs
    ~title:"Fig 8b - mean FCT vs network size (fat-tree, random perm)"
    Fat_tree ~quick ()

let fig8c ?jobs ~quick () =
  fct_table ?jobs
    ~title:"Fig 8c - mean FCT vs network size (BCube, dual-port)"
    Bcube ~quick ()

let fig8d ?jobs ~quick () =
  fct_table ?jobs
    ~title:"Fig 8d - mean FCT vs network size (Jellyfish 24-port, 2:1)"
    Jellyfish ~quick ()

(* (e) per-flow FCT ratio CDF at ~128 servers, flow level. *)
let fig8e ?jobs ~quick () =
  let seed = 1 in
  let families =
    [ ("Fat-tree", Fat_tree); ("BCube", Bcube); ("Jellyfish", Jellyfish) ]
  in
  let per_server = if quick then 4 else 10 in
  let specs = perm_workload ~per_server ~salt:5 in
  let ratios (_, family) =
    let run proto =
      (flow_run family ~servers:128 ~seed ~specs proto).Flowsim.flows
    in
    Array.to_list
      (Array.map2
         (fun (a : Flowsim.flow_result) (b : Flowsim.flow_result) ->
           match (a.Flowsim.fct, b.Flowsim.fct) with
           | Some p, Some r when p > 0. -> Some (r /. p)
           | _ -> None)
         (run (Flowsim.Pdq Flowsim.pdq_defaults))
         (run Flowsim.Rcp))
    |> List.filter_map Fun.id
    |> Array.of_list
  in
  let quantiles = [ 0.25; 0.5; 1.; 2.; 4.; 8. ] in
  let per_family = Sweep.map ?jobs ratios families in
  let rows =
    List.map2
      (fun (name, _) rs ->
        let cdf = Stats.cdf rs in
        name
        :: List.map (fun q -> Common.cell (Stats.cdf_at cdf q)) quantiles)
      families per_family
  in
  {
    Common.title =
      "Fig 8e - CDF of per-flow (RCP FCT / PDQ FCT), flow level, 128 servers \
       (cells: fraction of flows with ratio <= x)";
    header =
      "topology" :: List.map (fun q -> Printf.sprintf "x=%.2g" q) quantiles;
    rows;
  }
