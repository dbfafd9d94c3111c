module Flowsim = Pdq_flowsim.Flowsim
module Pattern = Pdq_workload.Pattern
module Size_dist = Pdq_workload.Size_dist
module Rng = Pdq_engine.Rng
module Scenario = Pdq_exec.Scenario

(* Heavier-than-average sizes so that without aging the least critical
   flows visibly starve behind a stream of smaller ones. *)
let sizes = Size_dist.uniform_paper ~mean_bytes:500_000

let run ~servers ~rounds ~seed proto =
  Common.flow_level
    ~topo:(Scenario.Fat_tree_servers { servers })
    ~seed
    ~specs:(fun ~seed ~topo:_ ~hosts ->
      let rng = Rng.create (0xF12 + seed) in
      let pairs =
        List.concat
          (List.init rounds (fun _ -> Pattern.random_permutation ~hosts ~rng))
      in
      Scenario.specs_of_pairs
        ~rng:(Rng.create (0xF8 + (seed * 37)))
        ~sizes ~deadlines:None ~flows:(List.length pairs) pairs)
    proto

let fig12 ?jobs ~quick () =
  let rates = if quick then [ 0.; 1.; 4.; 10. ] else [ 0.; 0.5; 1.; 2.; 4.; 6.; 8.; 10. ] in
  let seed = 1 in
  let pdq alpha =
    Flowsim.Pdq
      {
        Flowsim.pdq_defaults with
        Flowsim.early_termination = false;
        aging_rate = (if alpha > 0. then Some alpha else None);
      }
  in
  let run = run ~servers:128 ~rounds:4 ~seed in
  let rcp = run Flowsim.Rcp in
  let pdq_runs =
    Pdq_exec.Sweep.map ?jobs (fun alpha -> run (pdq alpha)) rates
  in
  let rows =
    List.map2
      (fun alpha r ->
        [
          Common.cell alpha;
          Common.cell (1e3 *. r.Flowsim.mean_fct);
          Common.cell (1e3 *. r.Flowsim.max_fct);
          Common.cell (1e3 *. rcp.Flowsim.mean_fct);
          Common.cell (1e3 *. rcp.Flowsim.max_fct);
        ])
      rates pdq_runs
  in
  {
    Common.title =
      "Fig 12 - flow aging: FCT [ms] vs aging rate (128-server fat-tree, \
       flow level)";
    header = [ "alpha"; "PDQ mean"; "PDQ max"; "RCP/D3 mean"; "RCP/D3 max" ];
    rows;
  }
