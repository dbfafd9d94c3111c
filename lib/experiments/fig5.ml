module Runner = Pdq_transport.Runner
module Config = Pdq_core.Config
module Context = Pdq_transport.Context
module Pattern = Pdq_workload.Pattern
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Arrivals = Pdq_workload.Arrivals
module Rng = Pdq_engine.Rng
module Scenario = Pdq_exec.Scenario

let short_flow_bytes = 40_000

(* Poisson trace of [dist]-sized flows over random pairs; short flows
   get deadlines. *)
let trace_specs ~dist ~deadline_mean ~rate ~duration ~seed ~hosts =
  let rng = Rng.create (0xF5 + (seed * 1009)) in
  let ddist = Deadline_dist.exponential ~mean:deadline_mean () in
  let starts = Arrivals.poisson ~rng ~rate ~horizon:duration in
  let pairs = Pattern.random_pairs ~hosts ~flows:(List.length starts) ~rng in
  List.map2
    (fun start (p : Pattern.pair) ->
      let size = Size_dist.sample dist rng in
      let deadline =
        if size < short_flow_bytes then Some (Deadline_dist.sample ddist rng)
        else None
      in
      { Context.src = p.Pattern.src; dst = p.Pattern.dst; size; deadline;
        start })
    starts pairs

let trace_scenario ~dist ~deadline_mean ~rate ~duration protocol =
  Scenario.make
    ~name:(Printf.sprintf "poisson trace @%.0f/s" rate)
    ~horizon:(duration +. 3.)
    ~workload:
      (Scenario.Generated
         {
           label = Printf.sprintf "poisson %.0f flows/s for %.2fs" rate duration;
           specs =
             (fun ~seed ~topo:_ ~hosts ->
               trace_specs ~dist ~deadline_mean ~rate ~duration ~seed ~hosts);
         })
    protocol

(* A trace can be empty at low rate × short duration; such runs carry
   no signal and drop out of the average (the [nan] convention the
   sequential driver always used). *)
let guard metric (r : Runner.result) =
  if Array.length r.Runner.flows = 0 then nan else metric r

let mean_ignoring_nan xs =
  let xs = List.filter (fun x -> not (Float.is_nan x)) xs in
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let fig5a ?jobs ~quick () =
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let duration = if quick then 0.05 else 0.2 in
  let deadline_means = if quick then [ 0.02; 0.04 ] else [ 0.015; 0.02; 0.03; 0.04 ] in
  let protos =
    if quick then
      List.map
        (fun p -> (Runner.protocol_name p, p))
        Runner.[ Pdq Config.full; Pdq Config.es_et; D3; Rcp; Tcp ]
    else Common.packet_protocols
  in
  let dist = Size_dist.vl2 () in
  (* Grid search over the arrival rate (flows/s): every rate is probed,
     so the columns are protocol × rate and a table cell keeps the
     highest rate whose seed-averaged application throughput reaches
     99%. *)
  let rates = [ 250.; 500.; 1000.; 2000.; 4000.; 8000. ] in
  let cols =
    List.concat_map
      (fun (name, proto) -> List.map (fun rate -> (name, proto, rate)) rates)
      protos
  in
  let max_rate ats name =
    List.fold_left2
      (fun acc (n, _, rate) at -> if n = name && at >= 0.99 then rate else acc)
      0. cols ats
  in
  let rows =
    Common.grid ?jobs ~seeds ~cell:mean_ignoring_nan
      ~run:(fun deadline_mean (_, proto, rate) seed ->
        let s = trace_scenario ~dist ~deadline_mean ~rate ~duration proto in
        guard
          (fun r -> r.Runner.application_throughput)
          (Scenario.run (Scenario.with_seed s seed)))
      deadline_means cols
    |> List.map2
         (fun dmean ats ->
           Common.cell (dmean *. 1e3)
           :: List.map (fun (name, _) -> Common.cell (max_rate ats name)) protos)
         deadline_means
  in
  {
    Common.title =
      "Fig 5a - short-flow arrival rate [flows/s] at 99% application \
       throughput (VL2-like workload)";
    header = "deadline[ms]" :: List.map fst protos;
    rows;
  }

let long_fct (r : Runner.result) =
  let longs =
    Array.to_list r.Runner.flows
    |> List.filter_map (fun (f : Runner.flow_result) ->
           if f.Runner.spec.Context.size >= 1_000_000 then f.Runner.fct else None)
  in
  match longs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. longs /. float_of_int (List.length longs)

let norm_table ?jobs ~title ~dist ~metric ~quick () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let duration = if quick then 0.05 else 0.2 in
  let rate = 1500. in
  let values =
    List.hd
      (Common.grid ?jobs ~seeds ~cell:mean_ignoring_nan
         ~run:(fun () (_, proto) seed ->
           let s = trace_scenario ~dist ~deadline_mean:0.02 ~rate ~duration proto in
           guard metric (Scenario.run (Scenario.with_seed s seed)))
         [ () ] Common.fct_protocols)
  in
  let base = List.hd values in
  let rows =
    [ "normalized" :: List.map (fun v -> Common.cell (v /. base)) values ]
  in
  {
    Common.title = title;
    header = "metric" :: List.map fst Common.fct_protocols;
    rows;
  }

let fig5b ?jobs ~quick () =
  norm_table ?jobs
    ~title:"Fig 5b - FCT of long flows, normalized to PDQ(Full) (VL2-like)"
    ~dist:(Size_dist.vl2 ()) ~metric:long_fct ~quick ()

let fig5c ?jobs ~quick () =
  norm_table ?jobs
    ~title:"Fig 5c - mean FCT normalized to PDQ(Full) (EDU1-like)"
    ~dist:(Size_dist.edu1 ())
    ~metric:(fun r -> r.Runner.mean_fct)
    ~quick ()
