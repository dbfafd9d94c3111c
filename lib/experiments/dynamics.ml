module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Series = Pdq_engine.Series
module Trace = Pdq_telemetry.Trace
module Metrics = Pdq_telemetry.Metrics
module Scenario = Pdq_exec.Scenario

type trace = {
  per_flow_gbps : (int * (float * float) array) list;
  utilization : (float * float) array;
  queue_pkts : (float * float) array;
  completions : (int * float) list;
}

(* All three time series come out of the generic telemetry: per-flow
   goodput from the [Flow_rx] events of a memory sink, utilization and
   queue depth from the metrics probe of the bottleneck link, whose id
   is read off the run's topology afterwards. Every series is binned
   at [bin]. *)
let bin = 1e-3

let run_traced ~senders ~specs_of ~t_end =
  let scenario =
    Scenario.make ~name:"traced bottleneck" ~horizon:(t_end +. 1.)
      ~topo:(Scenario.Bottleneck { senders })
      ~workload:
        (Scenario.Generated
           {
             label = "dynamics trace";
             specs =
               (fun ~seed:_ ~topo:_ ~hosts ->
                 specs_of hosts hosts.(Array.length hosts - 1));
           })
      (Runner.Pdq Pdq_core.Config.full)
  in
  let mem = Trace.memory () in
  let metrics = Metrics.create () in
  let telemetry =
    {
      Runner.no_telemetry with
      Runner.sinks = [ mem ];
      metrics = Some metrics;
      metrics_every = bin /. 4.;
    }
  in
  let r = Scenario.run ~telemetry scenario in
  (* The receiver is the last node the builder adds, behind switch 0. *)
  let topo = Context.topo r.Runner.ctx in
  let rx = Pdq_net.Topology.node_count topo - 1 in
  let bottleneck =
    Pdq_net.Link.id (List.hd (Pdq_net.Topology.cable topo ~a:0 ~b:rx))
  in
  let per_flow_tbl : (int, Series.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (time, ev) ->
      match ev with
      | Trace.Flow_rx { flow; bytes } ->
          let s =
            match Hashtbl.find_opt per_flow_tbl flow with
            | Some s -> s
            | None ->
                let s = Series.create () in
                Hashtbl.add per_flow_tbl flow s;
                s
          in
          Series.add s time (float_of_int bytes)
      | _ -> ())
    (Trace.memory_events mem);
  let per_flow =
    Hashtbl.fold (fun id s acc -> (id, s) :: acc) per_flow_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (id, s) ->
           let bins = Series.integrate_rate s ~width:bin ~t_end in
           (id, Array.map (fun (t, bps) -> (t, bps *. 8. /. 1e9)) bins))
  in
  let probe_series name =
    let s = Series.create () in
    Array.iter (fun (t, v) -> Series.add s t v) (Metrics.series metrics ~name);
    s
  in
  let utilization =
    Series.bin_mean
      (probe_series (Metrics.Name.link_util bottleneck))
      ~width:bin ~t_end
  in
  let queue_pkts =
    Series.bin_mean
      (probe_series (Metrics.Name.link_queue_bytes bottleneck))
      ~width:bin ~t_end
    |> Array.map (fun (t, b) -> (t, b /. 1500.))
  in
  let completions =
    Array.to_list r.Runner.flows
    |> List.mapi (fun i (f : Runner.flow_result) ->
           match f.Runner.fct with
           | Some fct -> Some (i, f.Runner.spec.Context.start +. fct)
           | None -> None)
    |> List.filter_map Fun.id
  in
  { per_flow_gbps = per_flow; utilization; queue_pkts; completions }

(* Fig 6: five ~1MB flows, perturbed so smaller index = more critical,
   all starting at t = 0. The perturbation is a few packets wide so the
   criticality order is robust against the slivers of bandwidth that
   paused flows pick up while the rate controller oscillates. *)
let fig6 () =
  run_traced ~senders:5 ~t_end:0.05 ~specs_of:(fun hosts rx ->
      List.init 5 (fun i ->
          {
            Context.src = hosts.(i);
            dst = rx;
            size = 1_000_000 + (i * 25_000);
            deadline = None;
            start = 0.;
          }))

(* Fig 7: a long-lived flow plus 50 short 20KB flows at t = 10 ms. *)
let fig7 () =
  run_traced ~senders:51 ~t_end:0.05 ~specs_of:(fun hosts rx ->
      {
        Context.src = hosts.(0);
        dst = rx;
        size = 5_000_000;
        deadline = None;
        start = 0.;
      }
      :: List.init 50 (fun i ->
             {
               Context.src = hosts.(1 + i);
               dst = rx;
               size = 20_000 + (i * 13);
               deadline = None;
               start = 0.010;
             }))

let table_of_trace ~title (t : trace) ~flows_shown =
  let bins =
    match t.utilization with [||] -> [||] | u -> Array.map fst u
  in
  let header =
    "t[ms]"
    :: (List.map (fun id -> Printf.sprintf "flow%d[Gb/s]" id) flows_shown
       @ [ "util"; "queue[pkts]" ])
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i t_bin ->
           let flow_cells =
             List.map
               (fun id ->
                 match List.assoc_opt id t.per_flow_gbps with
                 | Some series when i < Array.length series ->
                     Common.cell (snd series.(i))
                 | _ -> "0"
               )
               flows_shown
           in
           let util =
             if i < Array.length t.utilization then
               Common.cell (snd t.utilization.(i))
             else "-"
           in
           let queue =
             if i < Array.length t.queue_pkts then
               Common.cell (snd t.queue_pkts.(i))
             else "-"
           in
           (Common.cell (t_bin *. 1e3) :: flow_cells) @ [ util; queue ])
         bins)
  in
  { Common.title = title; header; rows }

let fig6_table () =
  let t = fig6 () in
  let completions =
    String.concat ", "
      (List.map (fun (i, c) -> Printf.sprintf "flow%d@%.1fms" i (c *. 1e3))
         t.completions)
  in
  table_of_trace
    ~title:
      ("Fig 6 - seamless flow switching (completions: " ^ completions ^ ")")
    t ~flows_shown:[ 0; 1; 2; 3; 4 ]

let fig7_table () =
  let t = fig7 () in
  let shorts_done =
    List.length (List.filter (fun (i, _) -> i > 0) t.completions)
  in
  table_of_trace
    ~title:
      (Printf.sprintf
         "Fig 7 - burst robustness (long flow + 50 shorts at 10ms; %d shorts \
          completed)"
         shorts_done)
    t ~flows_shown:[ 0 ]
