module Runner = Pdq_transport.Runner
module Size_dist = Pdq_workload.Size_dist
module Scenario = Pdq_exec.Scenario

let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ]

let at_metric (r : Runner.result) = 100. *. r.Runner.application_throughput
let fct_metric (r : Runner.result) = r.Runner.mean_fct

(* (a): application throughput vs number of flows. *)
let fig3a ?jobs ~quick () =
  let seeds = seeds ~quick in
  let flows_list =
    if quick then [ 2; 5; 10; 15; 20 ] else [ 2; 5; 10; 15; 20; 25 ]
  in
  let measured =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun n (_, proto) seed ->
        at_metric (Scenario.run (Common.aggregation_scenario ~seed ~flows:n proto)))
      flows_list Common.packet_protocols
  in
  let rows =
    List.map2
      (fun n cells ->
        let optimal =
          100. *. Common.optimal_aggregation_throughput ~seeds ~flows:n ()
        in
        string_of_int n :: Common.cell optimal :: List.map Common.cell cells)
      flows_list measured
  in
  {
    Common.title = "Fig 3a - application throughput [%] vs number of flows";
    header = "flows" :: "Optimal" :: List.map fst Common.packet_protocols;
    rows;
  }

(* (b): 3 flows, growing mean size. *)
let fig3b ?jobs ~quick () =
  let seeds = seeds ~quick in
  let means =
    if quick then [ 100_000; 200_000; 300_000 ]
    else [ 100_000; 150_000; 200_000; 250_000; 300_000; 350_000 ]
  in
  let measured =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun mean (_, proto) seed ->
        at_metric
          (Scenario.run
             (Common.aggregation_scenario ~seed
                ~sizes:(Size_dist.uniform_paper ~mean_bytes:mean)
                ~flows:3 proto)))
      means Common.packet_protocols
  in
  let rows =
    List.map2
      (fun mean cells ->
        let sizes = Size_dist.uniform_paper ~mean_bytes:mean in
        let optimal =
          100. *. Common.optimal_aggregation_throughput ~seeds ~sizes ~flows:3 ()
        in
        string_of_int (mean / 1000)
        :: Common.cell optimal
        :: List.map Common.cell cells)
      means measured
  in
  {
    Common.title =
      "Fig 3b - application throughput [%] vs mean flow size (3 flows)";
    header = "size[KB]" :: "Optimal" :: List.map fst Common.packet_protocols;
    rows;
  }

(* (c): flows sustainable at 99% application throughput vs deadline.
   The binary search is inherently sequential (each probe depends on
   the last), so parallelism only enters through the per-probe seed
   sweep. *)
let fig3c ?jobs ~quick () =
  let seeds = seeds ~quick in
  let deadline_means =
    if quick then [ 0.02; 0.04; 0.06 ] else [ 0.02; 0.03; 0.04; 0.05; 0.06 ]
  in
  let hi = if quick then 48 else 64 in
  let protos =
    if quick then Common.quick_protocols else Common.packet_protocols
  in
  let rows =
    List.map
      (fun dmean ->
        let optimal =
          Common.search_max_flows ~hi ~target:0.99 (fun n ->
              Common.optimal_aggregation_throughput ?jobs ~seeds
                ~deadline_mean:dmean ~flows:n ())
        in
        let cells =
          List.map
            (fun (_, proto) ->
              string_of_int
                (Common.search_max_flows ~hi ~target:99. (fun n ->
                     Common.run_aggregation ?jobs ~seeds ~deadline_mean:dmean
                       ~flows:n proto at_metric)))
            protos
        in
        (Common.cell (dmean *. 1e3) :: string_of_int optimal :: cells))
      deadline_means
  in
  {
    Common.title = "Fig 3c - number of flows at 99% application throughput";
    header = "deadline[ms]" :: "Optimal" :: List.map fst protos;
    rows;
  }

(* (d): mean FCT normalized to optimal (no deadlines). *)
let fig3d ?jobs ~quick () =
  let seeds = seeds ~quick in
  let flows_list =
    if quick then [ 1; 5; 10; 20 ] else [ 1; 5; 10; 15; 20; 25 ]
  in
  let measured =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun n (_, proto) seed ->
        fct_metric
          (Scenario.run
             (Common.aggregation_scenario ~seed ~deadlines:false ~flows:n proto)))
      flows_list Common.fct_protocols
  in
  let rows =
    List.map2
      (fun n cells ->
        let optimal = Common.optimal_aggregation_fct ~seeds ~flows:n () in
        string_of_int n
        :: List.map (fun fct -> Common.cell (fct /. optimal)) cells)
      flows_list measured
  in
  {
    Common.title = "Fig 3d - mean FCT normalized to optimal vs number of flows";
    header = "flows" :: List.map fst Common.fct_protocols;
    rows;
  }

let fig3e ?jobs ~quick () =
  let seeds = seeds ~quick in
  let means =
    if quick then [ 100_000; 200_000; 300_000 ]
    else [ 100_000; 150_000; 200_000; 250_000; 300_000; 350_000 ]
  in
  let measured =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun mean (_, proto) seed ->
        fct_metric
          (Scenario.run
             (Common.aggregation_scenario ~seed ~deadlines:false
                ~sizes:(Size_dist.uniform_paper ~mean_bytes:mean)
                ~flows:3 proto)))
      means Common.fct_protocols
  in
  let rows =
    List.map2
      (fun mean cells ->
        let sizes = Size_dist.uniform_paper ~mean_bytes:mean in
        let optimal = Common.optimal_aggregation_fct ~seeds ~sizes ~flows:3 () in
        string_of_int (mean / 1000)
        :: List.map (fun fct -> Common.cell (fct /. optimal)) cells)
      means measured
  in
  {
    Common.title = "Fig 3e - mean FCT normalized to optimal vs mean flow size";
    header = "size[KB]" :: List.map fst Common.fct_protocols;
    rows;
  }

(* Forensic companion to (a)/(d): instead of one scalar per cell, show
   where PDQ(Full)'s completion time actually went on the canonical
   aggregation scenario — serialization vs. preemption pauses. *)
let attribution () =
  let flows = 6 and seed = 1 in
  let scenario =
    Common.aggregation_scenario ~seed ~flows (snd (List.hd Common.pdq_variants))
  in
  Common.attribution_table
    ~title:
      (Printf.sprintf
         "Fig 3 forensics - PDQ(Full) FCT attribution [ms], %d flows, seed %d"
         flows seed)
    (Common.attribution_report scenario)
