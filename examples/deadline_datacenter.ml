(* A realistic mixed datacenter workload (Fig. 5 style): VL2-like flow
   sizes — mostly mice, a few elephants — arriving as a Poisson
   process over random server pairs on the 12-server tree. Short flows
   (< 40 KB) carry deadlines; Early Termination gives up on hopeless
   ones to protect the rest.

   The workload is a pure generator inside the scenario, so the four
   protocol runs are independent scenarios evaluated in parallel by
   [Sweep.map Scenario.run].

   Run with: dune exec examples/deadline_datacenter.exe *)

module Rng = Pdq_engine.Rng
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Pattern = Pdq_workload.Pattern
module Arrivals = Pdq_workload.Arrivals
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep

let duration = 0.08
let rate = 1200. (* flows per second *)

let specs_of ~seed ~topo:_ ~hosts =
  let rng = Rng.create seed in
  let dist = Size_dist.vl2 () in
  let ddist = Deadline_dist.exponential ~mean:0.02 () in
  let starts = Arrivals.poisson ~rng ~rate ~horizon:duration in
  let pairs = Pattern.random_pairs ~hosts ~flows:(List.length starts) ~rng in
  List.map2
    (fun start (p : Pattern.pair) ->
      let size = Size_dist.sample dist rng in
      {
        Context.src = p.Pattern.src;
        dst = p.Pattern.dst;
        size;
        deadline =
          (if size < 40_000 then Some (Deadline_dist.sample ddist rng)
           else None);
        start;
      })
    starts pairs

let protocols =
  [
    ("PDQ(Full)", Runner.Pdq Pdq_core.Config.full);
    ("D3", Runner.D3);
    ("RCP", Runner.Rcp);
    ("TCP", Runner.Tcp);
  ]

let () =
  let scenario proto =
    Scenario.make ~seed:7 ~horizon:(duration +. 3.)
      ~workload:
        (Scenario.Generated { label = "VL2 Poisson mix"; specs = specs_of })
      proto
  in
  let results =
    Sweep.map Scenario.run (List.map (fun (_, p) -> scenario p) protocols)
  in
  List.iter2
    (fun (name, _) (r : Runner.result) ->
      let shorts =
        Array.to_list r.Runner.flows
        |> List.filter (fun (f : Runner.flow_result) ->
               f.Runner.spec.Context.size < 40_000)
        |> List.length
      in
      let terminated =
        Array.to_list r.Runner.flows
        |> List.filter (fun (f : Runner.flow_result) -> f.Runner.terminated)
        |> List.length
      in
      Printf.printf
        "%-10s %3d flows (%d short) | deadline throughput %5.1f%% | mean FCT \
         %6.2f ms | %d early-terminated\n"
        name
        (Array.length r.Runner.flows)
        shorts
        (100. *. r.Runner.application_throughput)
        (1e3 *. r.Runner.mean_fct)
        terminated)
    protocols results
