(* Multipath PDQ (§6) on BCube(2,3): 16 servers with four NICs each.
   Single-path PDQ can use one interface per flow; M-PDQ stripes each
   flow over subflows routed on disjoint ECMP paths and shifts load
   away from paused subflows.

   One scenario per protocol variant, evaluated in parallel by
   [Sweep.map Scenario.run] — the path closure captures only immutable
   data, so it crosses domains safely.

   Run with: dune exec examples/multipath.exe *)

module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Units = Pdq_engine.Units
module Builder = Pdq_topo.Builder
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Pattern = Pdq_workload.Pattern
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep

let () =
  let scenario protocol =
    Scenario.make
      ~topo:(Scenario.Bcube { n = 2; k = 3 })
      ~workload:
        (Scenario.Generated
           {
             label = "random permutation, 400 KB";
             specs =
               (fun ~seed:_ ~topo:_ ~hosts ->
                 let rng = Rng.create 11 in
                 let pairs = Pattern.random_permutation ~hosts ~rng in
                 List.map
                   (fun (p : Pattern.pair) ->
                     {
                       Context.src = p.Pattern.src;
                       dst = p.Pattern.dst;
                       size = Units.kbyte 400.;
                       deadline = None;
                       start = 0.;
                     })
                   pairs);
           })
      protocol
  in
  (* M-PDQ subflows follow BCube address-based parallel paths, leaving
     the source through different server ports. The throwaway instance
     only serves to compute the address mapping. *)
  let bcube_paths =
    let sim = Sim.create () in
    let built = Builder.bcube ~sim ~n:2 ~k:3 () in
    fun ~src ~dst -> Builder.bcube_paths ~n:2 ~k:3 built ~src ~dst
  in
  let protocols =
    [ ("PDQ", Runner.Pdq Pdq_core.Config.full) ]
    @ List.map
        (fun k ->
          ( Printf.sprintf "M-PDQ(%d)" k,
            Runner.mpdq ~paths:bcube_paths ~subflows:k () ))
        [ 2; 3; 4 ]
  in
  Printf.printf "BCube(2,3), random permutation, 400 KB per flow:\n\n";
  let results =
    Sweep.map Scenario.run (List.map (fun (_, p) -> scenario p) protocols)
  in
  List.iter2
    (fun (name, _) (r : Runner.result) ->
      Printf.printf "  %-10s mean FCT %6.2f ms (%d/%d completed)\n" name
        (1e3 *. r.Runner.mean_fct)
        r.Runner.completed
        (Array.length r.Runner.flows))
    protocols results
