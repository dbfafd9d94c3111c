module Flowsim = Pdq_flowsim.Flowsim
module Pattern = Pdq_workload.Pattern
module Size_dist = Pdq_workload.Size_dist
module Rng = Pdq_engine.Rng
module Scenario = Pdq_exec.Scenario

let schemes =
  [
    ("PDQ perfect info", Flowsim.Pdq { Flowsim.pdq_defaults with Flowsim.early_termination = false });
    ( "PDQ random criticality",
      Flowsim.Pdq
        {
          Flowsim.pdq_defaults with
          Flowsim.early_termination = false;
          criticality = Flowsim.Random_criticality;
        } );
    ( "PDQ size estimation (50KB)",
      Flowsim.Pdq
        {
          Flowsim.pdq_defaults with
          Flowsim.early_termination = false;
          criticality = Flowsim.Size_estimation 50_000;
        } );
    ("RCP", Flowsim.Rcp);
  ]

(* Ten senders towards the bottleneck's receiver, the last host. *)
let specs ~dist ~seed ~topo:_ ~hosts =
  let receiver = hosts.(Array.length hosts - 1) in
  Scenario.specs_of_pairs
    ~rng:(Rng.create (0xF8 + (seed * 37)))
    ~sizes:dist ~deadlines:None ~flows:10
    (Pattern.aggregation ~hosts ~receiver ~flows:10)

(* A finer step keeps the 10-flow schedule crisp at sub-ms scale. *)
let mean_fct ~dist ~proto ~seed =
  (Common.flow_level ~dt:1e-4
     ~topo:(Scenario.Bottleneck { senders = 10 })
     ~seed ~specs:(specs ~dist) proto)
    .Flowsim.mean_fct

let fig10 ?jobs ~quick () =
  let seeds = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let dists =
    [
      ("Uniform", Size_dist.uniform_paper ~mean_bytes:100_000);
      ("Pareto(1.1)", Size_dist.pareto ~tail_index:1.1 ~mean_bytes:100_000 ());
    ]
  in
  let rows =
    List.map
      (fun (name, proto) ->
        name
        :: List.map
             (fun (_, dist) ->
               Common.cell
                 (1e3
                 *. Pdq_exec.Sweep.average ?jobs ~seeds (fun seed ->
                        mean_fct ~dist ~proto ~seed)))
             dists)
      schemes
  in
  {
    Common.title =
      "Fig 10 - mean FCT [ms] with inaccurate flow information (10 flows, \
       mean 100KB, flow level)";
    header = "scheme" :: List.map fst dists;
    rows;
  }
