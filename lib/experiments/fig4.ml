module Runner = Pdq_transport.Runner
module Pattern = Pdq_workload.Pattern
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Rng = Pdq_engine.Rng
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep

type pattern_name = string

let patterns =
  [
    "Aggregation";
    "Stride(1)";
    "Stride(N/2)";
    "Staggered(0.7)";
    "Staggered(0.3)";
    "RandPerm";
  ]

(* Source/destination pairs of a named pattern; cycled to produce the
   requested number of flows. *)
let pattern_pairs name ~topo ~hosts ~rng =
  let n = Array.length hosts in
  match name with
  | "Aggregation" -> Pattern.aggregation ~hosts ~receiver:hosts.(0) ~flows:n
  | "Stride(1)" -> Pattern.stride ~hosts ~i:1
  | "Stride(N/2)" -> Pattern.stride ~hosts ~i:(n / 2)
  | "Staggered(0.7)" ->
      Pattern.staggered ~rack_of:(Pdq_net.Topology.rack_of topo) ~hosts ~p:0.7 ~rng
  | "Staggered(0.3)" ->
      Pattern.staggered ~rack_of:(Pdq_net.Topology.rack_of topo) ~hosts ~p:0.3 ~rng
  | "RandPerm" -> Pattern.random_permutation ~hosts ~rng
  | other -> invalid_arg ("Fig4.pattern_pairs: " ^ other)

let specs_of_pattern name ~deadlines ~flows ~seed ~topo ~hosts =
  let rng = Rng.create (0xF16 + (seed * 131)) in
  let pairs = pattern_pairs name ~topo ~hosts ~rng in
  Scenario.specs_of_pairs ~rng
    ~sizes:(Size_dist.uniform_paper ~mean_bytes:100_000)
    ~deadlines:
      (if deadlines then Some (Deadline_dist.exponential ~mean:0.02 ())
       else None)
    ~flows pairs

let pattern_scenario name ~deadlines ~flows protocol =
  Scenario.make
    ~name:(Printf.sprintf "%s x%d" name flows)
    ~horizon:5.
    ~workload:
      (Scenario.Generated
         {
           label = Printf.sprintf "%d %s flows" flows name;
           specs =
             (fun ~seed ~topo ~hosts ->
               specs_of_pattern name ~deadlines ~flows ~seed ~topo ~hosts);
         })
    protocol

let fig4a ?jobs ?(quick = true) () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let protos =
    if quick then Common.quick_protocols else Common.packet_protocols
  in
  let capacity name proto =
    Common.search_max_flows ~hi:(if quick then 36 else 64) ~target:99.
      (fun flows ->
        let scenario = pattern_scenario name ~deadlines:true ~flows proto in
        Sweep.average ?jobs ~seeds (fun seed ->
            let r = Scenario.run (Scenario.with_seed scenario seed) in
            100. *. r.Runner.application_throughput))
  in
  let rows =
    List.map
      (fun name ->
        let base = max 1 (capacity name (snd (List.hd protos))) in
        let cells =
          List.map
            (fun (_, proto) ->
              Common.cell (float_of_int (capacity name proto) /. float_of_int base))
            protos
        in
        name :: cells)
      patterns
  in
  {
    Common.title =
      "Fig 4a - flows at 99% application throughput, normalized to PDQ(Full)";
    header = "pattern" :: List.map fst protos;
    rows;
  }

let fig4b ?jobs ?(quick = true) () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let flows = 12 in
  let rows =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun name (_, proto) seed ->
        let s = pattern_scenario name ~deadlines:false ~flows proto in
        (Scenario.run (Scenario.with_seed s seed)).Runner.mean_fct)
      patterns Common.fct_protocols
    |> List.map2
         (fun name row ->
           let base = List.hd row in
           name :: List.map (fun fct -> Common.cell (fct /. base)) row)
         patterns
  in
  {
    Common.title = "Fig 4b - mean FCT normalized to PDQ(Full)";
    header = "pattern" :: List.map fst Common.fct_protocols;
    rows;
  }
