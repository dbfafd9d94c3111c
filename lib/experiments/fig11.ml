module Runner = Pdq_transport.Runner
module Builder = Pdq_topo.Builder
module Pattern = Pdq_workload.Pattern
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Rng = Pdq_engine.Rng
module Sim = Pdq_engine.Sim
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep

(* Larger flows than the query workload so path diversity (not
   handshake latency) dominates the completion time. *)
let sizes = Size_dist.uniform_paper ~mean_bytes:500_000
let capacity_sizes = Size_dist.uniform_paper ~mean_bytes:100_000

(* Random permutation over a [load] fraction of the BCube(2,3) hosts. *)
let specs_at_load ~load ~deadlines ~seed ~hosts =
  let rng = Rng.create (0xF11 + (seed * 53)) in
  let n = Array.length hosts in
  let k = max 2 (int_of_float (float_of_int n *. load)) in
  let chosen = Array.sub (let a = Array.copy hosts in Rng.shuffle rng a; a) 0 k in
  let pairs = Pattern.random_permutation ~hosts:chosen ~rng in
  Scenario.specs_of_pairs ~rng ~sizes
    ~deadlines:
      (if deadlines then Some (Deadline_dist.exponential ~mean:0.02 ())
       else None)
    ~flows:(List.length pairs) pairs

let load_scenario ~load ~deadlines protocol =
  Scenario.make
    ~name:(Printf.sprintf "bcube perm @%.0f%%" (100. *. load))
    ~horizon:5.
    ~topo:(Scenario.Bcube { n = 2; k = 3 })
    ~workload:
      (Scenario.Generated
         {
           label = Printf.sprintf "permutation over %.0f%% of hosts" (100. *. load);
           specs =
             (fun ~seed ~topo:_ ~hosts ->
               specs_at_load ~load ~deadlines ~seed ~hosts);
         })
    protocol

(* BCube node ids are deterministic, so one throwaway instance provides
   the address-based parallel paths for every run (the closure is
   immutable and crosses worker domains freely). *)
let bcube_multipath =
  let built =
    Scenario.build_topo (Scenario.Bcube { n = 2; k = 3 }) ~sim:(Sim.create ())
      ~seed:0
  in
  fun ~src ~dst -> Builder.bcube_paths ~n:2 ~k:3 built ~src ~dst

let mpdq subflows = Runner.mpdq ~subflows ~paths:bcube_multipath ()

let fig11a ?jobs ~quick () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let loads = if quick then [ 0.25; 0.5; 1.0 ] else [ 0.125; 0.25; 0.5; 0.75; 1.0 ] in
  let protos = [ Runner.Pdq Pdq_core.Config.full; mpdq 3 ] in
  let rows =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun load proto seed ->
        let s = load_scenario ~load ~deadlines:false proto in
        (Scenario.run (Scenario.with_seed s seed)).Runner.mean_fct)
      loads protos
    |> List.map2
         (fun load row ->
           Common.cell (100. *. load)
           :: List.map (fun fct -> Common.cell (1e3 *. fct)) row)
         loads
  in
  {
    Common.title = "Fig 11a - mean FCT [ms] vs load (BCube(2,3), random perm)";
    header = [ "load[%hosts]"; "PDQ"; "M-PDQ(3)" ];
    rows;
  }

let capacity_scenario ~flows protocol =
  Scenario.make
    ~name:(Printf.sprintf "bcube pairs x%d" flows)
    ~horizon:5.
    ~topo:(Scenario.Bcube { n = 2; k = 3 })
    ~workload:
      (Scenario.Generated
         {
           label = Printf.sprintf "%d random-pair deadline flows" flows;
           specs =
             (fun ~seed ~topo:_ ~hosts ->
               let rng = Rng.create (0xF11 + (seed * 53)) in
               let pairs = Pattern.random_pairs ~hosts ~flows ~rng in
               Scenario.specs_of_pairs ~rng ~sizes:capacity_sizes
                 ~deadlines:(Some (Deadline_dist.exponential ~mean:0.02 ()))
                 ~flows pairs);
         })
    protocol

let fig11bc ?jobs ~quick () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let subflow_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let proto k = if k = 1 then Runner.Pdq Pdq_core.Config.full else mpdq k in
  let rows =
    List.map
      (fun k ->
        let s = load_scenario ~load:1.0 ~deadlines:false (proto k) in
        let fct =
          Sweep.average ?jobs ~seeds (fun seed ->
              (Scenario.run (Scenario.with_seed s seed)).Runner.mean_fct)
        in
        (* (c): capacity search with extra deadline flows layered on the
           permutation by scaling the sending population. *)
        let cap =
          Common.search_max_flows ~hi:24 ~target:99. (fun n ->
              let s = capacity_scenario ~flows:n (proto k) in
              Sweep.average ?jobs ~seeds (fun seed ->
                  100.
                  *. (Scenario.run (Scenario.with_seed s seed))
                       .Runner.application_throughput))
        in
        [ (if k = 1 then "PDQ" else string_of_int k); Common.cell (1e3 *. fct);
          string_of_int cap ])
      subflow_counts
  in
  {
    Common.title =
      "Fig 11b/c - mean FCT [ms] and flows at 99% application throughput vs \
       subflow count (100% load)";
    header = [ "subflows"; "FCT[ms]"; "flows@99%AT" ];
    rows;
  }
