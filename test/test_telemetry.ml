(* Tests for pdq_telemetry and its wiring: trace-bus semantics, sinks,
   the metrics registry, the runner's network-wide probe, the
   simulator profiler, and the guarantee that attaching any of them
   cannot perturb a run. *)

module Sim = Pdq_engine.Sim
module Profiler = Pdq_engine.Profiler
module Units = Pdq_engine.Units
module Trace = Pdq_telemetry.Trace
module Metrics = Pdq_telemetry.Metrics
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Builder = Pdq_topo.Builder

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)

let check_float msg expected actual =
  if not (feq expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Trace bus and sinks *)

let test_event_json () =
  Alcotest.(check string) "flow_paused"
    {|{"t":0.0012,"ev":"flow_paused","flow":3,"by":2}|}
    (Trace.event_to_json ~time:0.0012
       (Trace.Flow_paused { flow = 3; by = 2; preempted_by = None }));
  Alcotest.(check string) "flow_paused with preempter"
    {|{"t":0.0012,"ev":"flow_paused","flow":3,"by":2,"preempted_by":7}|}
    (Trace.event_to_json ~time:0.0012
       (Trace.Flow_paused { flow = 3; by = 2; preempted_by = Some 7 }));
  Alcotest.(check string) "flow_admitted with deadline"
    {|{"t":0,"ev":"flow_admitted","flow":1,"src":2,"dst":3,"size":1000,"deadline":0.02}|}
    (Trace.event_to_json ~time:0.
       (Trace.Flow_admitted
          { flow = 1; src = 2; dst = 3; size = 1000; deadline = Some 0.02 }));
  Alcotest.(check string) "packet_dropped cause name"
    {|{"t":1,"ev":"packet_dropped","link":4,"cause":"overflow"}|}
    (Trace.event_to_json ~time:1.
       (Trace.Packet_dropped { link = 4; cause = Trace.Overflow }));
  Alcotest.(check string) "fault desc is escaped"
    {|{"t":2,"ev":"fault","desc":"a\"b"}|}
    (Trace.event_to_json ~time:2. (Trace.Fault { desc = {|a"b|} }))

let test_null_bus () =
  Alcotest.(check bool) "null inactive" false (Trace.active Trace.null);
  Trace.emit Trace.null (Trace.Flow_started { flow = 0 });
  Alcotest.(check int) "null counts nothing" 0 (Trace.events_seen Trace.null);
  let empty = Trace.create ~clock:(fun () -> 0.) ~sinks:[] in
  Alcotest.(check bool) "no sinks = null" false (Trace.active empty)

let test_memory_ring () =
  let clock = ref 0. in
  let mem = Trace.memory () in
  let bus = Trace.create ~clock:(fun () -> !clock) ~sinks:[ mem ] in
  Alcotest.(check bool) "active" true (Trace.active bus);
  for i = 1 to 5 do
    clock := float_of_int i;
    Trace.emit bus (Trace.Flow_started { flow = i })
  done;
  Alcotest.(check int) "emitted 5" 5 (Trace.events_seen bus);
  let evs = Trace.memory_events mem in
  Alcotest.(check int) "keeps all 5" 5 (List.length evs);
  (match evs with
  | (t, Trace.Flow_started { flow }) :: _ ->
      check_float "oldest first" 1. t;
      Alcotest.(check int) "flow id" 1 flow
  | _ -> Alcotest.fail "unexpected memory contents");
  Alcotest.check_raises "jsonl sink has no memory"
    (Invalid_argument "Trace.memory_events: not a memory sink") (fun () ->
      ignore (Trace.memory_events (Trace.jsonl stdout)))

let with_temp_file f =
  let path = Filename.temp_file "pdq_telemetry" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_jsonl_sink () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let bus = Trace.create ~clock:(fun () -> 0.5) ~sinks:[ Trace.jsonl oc ] in
      Trace.emit bus (Trace.Flow_started { flow = 7 });
      Trace.emit bus (Trace.Flow_completed { flow = 7; fct = 0.25 });
      close_out oc;
      let lines = read_lines path in
      Alcotest.(check int) "two lines" 2 (List.length lines);
      Alcotest.(check string) "first line"
        {|{"t":0.5,"ev":"flow_started","flow":7}|}
        (List.nth lines 0);
      List.iter
        (fun l ->
          Alcotest.(check bool) "looks like a JSON object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m "drops" in
  Metrics.incr c ();
  Metrics.incr c ~by:4 ();
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check int) "same handle by name" 5
    (Metrics.counter_value (Metrics.counter m "drops"));
  let h = Metrics.histogram m "fct" in
  Alcotest.(check bool) "empty histogram" true
    (Metrics.histogram_summary h = None);
  List.iter (Metrics.observe h) [ 1.; 2.; 3.; 4. ];
  (match Metrics.histogram_summary h with
  | Some (n, mean, p50, _p90, _p99, max) ->
      Alcotest.(check int) "n" 4 n;
      check_float "mean" 2.5 mean;
      check_float "p50" 2.5 p50;
      check_float "max" 4. max
  | None -> Alcotest.fail "summary expected");
  Metrics.add_counters m [ ("drops", 2); ("aborts", 1) ];
  Alcotest.(check (list (pair string int)))
    "counters merged and sorted"
    [ ("aborts", 1); ("drops", 7) ]
    (Metrics.counters m)

let test_metrics_series () =
  let m = Metrics.create () in
  Metrics.sample m ~time:0. ~name:"link.0.util" ~value:0.5;
  Metrics.sample m ~time:1. ~name:"link.0.util" ~value:0.75;
  Metrics.sample m ~time:0. ~name:"link.1.util" ~value:0.;
  Alcotest.(check (list string))
    "names sorted"
    [ "link.0.util"; "link.1.util" ]
    (Metrics.series_names m);
  let s = Metrics.series m ~name:"link.0.util" in
  Alcotest.(check int) "points" 2 (Array.length s);
  check_float "second value" 0.75 (snd s.(1));
  Alcotest.(check int) "unknown series empty" 0
    (Array.length (Metrics.series m ~name:"nope"))

let test_metrics_export () =
  let m = Metrics.create () in
  Metrics.sample m ~time:0.001 ~name:"link.0.util" ~value:0.5;
  Metrics.incr (Metrics.counter m "drop.loss") ~by:3 ();
  Metrics.observe (Metrics.histogram m "flow.fct_ms") 12.;
  with_temp_file (fun path ->
      let oc = open_out path in
      Metrics.write_csv m oc;
      close_out oc;
      let lines = read_lines path in
      Alcotest.(check string) "csv header" "kind,time,name,value"
        (List.hd lines);
      Alcotest.(check bool) "csv has sample row" true
        (List.exists
           (fun l -> String.length l >= 6 && String.sub l 0 6 = "sample")
           lines);
      Alcotest.(check bool) "csv has counter row" true
        (List.exists
           (fun l ->
             String.length l >= 7 && String.sub l 0 7 = "counter")
           lines));
  with_temp_file (fun path ->
      let oc = open_out path in
      Metrics.write_jsonl m oc;
      close_out oc;
      let lines = read_lines path in
      Alcotest.(check bool) "jsonl non-empty" true (lines <> []);
      List.iter
        (fun l ->
          Alcotest.(check bool) "JSON object per line" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

(* ------------------------------------------------------------------ *)
(* Runner integration *)

let bottleneck_run ?(telemetry = Runner.no_telemetry)
    ?(proto = Runner.Pdq Pdq_core.Config.full) ?(senders = 2)
    ?(sizes = [ 30_000; 60_000 ]) () =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders () in
  let hosts = built.Builder.hosts in
  let specs =
    List.mapi
      (fun i size ->
        { Context.src = hosts.(i); dst = rx; size; deadline = None; start = 0. })
      sizes
  in
  let options = { Runner.default_options with Runner.telemetry } in
  Runner.execute ~options ~topo:built.Builder.topo proto specs

let fcts r =
  Array.to_list (Array.map (fun (f : Runner.flow_result) -> f.Runner.fct) r.Runner.flows)

(* Compact projection of the control-plane events (everything except
   the per-packet [Flow_rx] / [Flow_rate_set] chatter), used by the
   golden-trace test. *)
let tag = function
  | Trace.Flow_admitted { flow; _ } -> Some (Printf.sprintf "admitted:%d" flow)
  | Trace.Flow_started { flow } -> Some (Printf.sprintf "started:%d" flow)
  | Trace.Flow_paused { flow; by; _ } ->
      Some (Printf.sprintf "paused:%d@%d" flow by)
  | Trace.Flow_resumed { flow; _ } -> Some (Printf.sprintf "resumed:%d" flow)
  | Trace.Flow_completed { flow; _ } ->
      Some (Printf.sprintf "completed:%d" flow)
  | Trace.Flow_terminated { flow } ->
      Some (Printf.sprintf "terminated:%d" flow)
  | Trace.Flow_aborted { flow; _ } -> Some (Printf.sprintf "aborted:%d" flow)
  | Trace.Switch_flushed { switch } ->
      Some (Printf.sprintf "flushed:%d" switch)
  | Trace.Switch_rebuilt { switch } ->
      Some (Printf.sprintf "rebuilt:%d" switch)
  | Trace.Packet_dropped { cause; _ } ->
      Some
        (Printf.sprintf "dropped:%s"
           (match cause with
           | Trace.Loss -> "loss"
           | Trace.Overflow -> "overflow"
           | Trace.Link_down -> "down"
           | Trace.Stale_route -> "stale"))
  | Trace.Flow_rx _ | Trace.Flow_rate_set _ -> None
  (* Per-flow lifecycle detail consumed by the forensics layer, not
     part of the compact control-plane projection. *)
  | Trace.Flow_established _ | Trace.Flow_retransmit _ -> None
  | Trace.Fault _ -> Some "fault"
  (* Supervisor lifecycle events ride a wall-clock bus, never a
     simulation trace. *)
  | Trace.Sweep_task _ -> None

let test_golden_trace () =
  let mem = Trace.memory () in
  let r =
    bottleneck_run
      ~telemetry:{ Runner.no_telemetry with Runner.sinks = [ mem ] }
      ()
  in
  Alcotest.(check int) "both flows completed" 2 r.Runner.completed;
  let got =
    List.filter_map (fun (_, ev) -> tag ev) (Trace.memory_events mem)
  in
  (* Fixed seed, fixed workload: the 30 KB flow runs to completion
     while the switch pauses the 60 KB flow, which resumes and finishes
     second — the paper's one-at-a-time schedule, as telemetry. *)
  let expected =
    [
      "admitted:0";
      "admitted:1";
      "started:0";
      "started:1";
      "paused:1@0";
      "resumed:1";
      "completed:0";
      "completed:1";
    ]
  in
  if got <> expected then
    Alcotest.failf "golden trace mismatch, got:\n%s"
      (String.concat "; " got);
  (* Timestamps never go backwards. *)
  let _ =
    List.fold_left
      (fun prev (t, _) ->
        if t < prev then Alcotest.failf "time went backwards: %g < %g" t prev;
        t)
      0. (Trace.memory_events mem)
  in
  ()

let test_trace_determinism () =
  let run () =
    let mem = Trace.memory () in
    let r =
      bottleneck_run
        ~telemetry:{ Runner.no_telemetry with Runner.sinks = [ mem ] }
        ~senders:3
        ~sizes:[ 40_000; 80_000; 120_000 ]
        ()
    in
    (Trace.memory_events mem, fcts r)
  in
  let e1, f1 = run () in
  let e2, f2 = run () in
  Alcotest.(check bool) "identical event streams" true (e1 = e2);
  Alcotest.(check bool) "identical fcts" true (f1 = f2);
  Alcotest.(check bool) "stream non-empty" true (e1 <> [])

let test_sinks_do_not_perturb () =
  let bare = bottleneck_run () in
  let mem = Trace.memory () in
  let m = Metrics.create () in
  let instrumented =
    bottleneck_run
      ~telemetry:
        { Runner.no_telemetry with Runner.sinks = [ mem ]; metrics = Some m; metrics_every = 1e-4 }
      ()
  in
  Alcotest.(check bool) "identical flow results" true
    (fcts bare = fcts instrumented);
  check_float "identical sim end" bare.Runner.sim_end
    instrumented.Runner.sim_end;
  Alcotest.(check bool) "but events were recorded" true
    (Trace.memory_events mem <> [])

(* The metrics probe and the port probe share one tick: attaching both
   records exactly what each records alone, and schedules no more
   simulator events than the metrics probe alone. *)
let test_one_probe_tick () =
  let run ~metrics ~probe =
    let m = Metrics.create () in
    let views = ref [] in
    let telemetry =
      {
        Runner.no_telemetry with
        metrics = (if metrics then Some m else None);
        metrics_every = 2e-4;
        port_probe =
          (if probe then Some (fun ~now v -> views := (now, v) :: !views)
           else None);
      }
    in
    let r =
      bottleneck_run ~telemetry ~senders:3
        ~sizes:[ 100_000; 100_000; 100_000 ] ()
    in
    let samples =
      List.map
        (fun name -> (name, Metrics.series m ~name))
        (Metrics.series_names m)
    in
    (samples, List.rev !views, Sim.events_executed (Context.sim r.Runner.ctx))
  in
  let m_samples, _, m_events = run ~metrics:true ~probe:false in
  let _, p_views, _ = run ~metrics:false ~probe:true in
  let b_samples, b_views, b_events = run ~metrics:true ~probe:true in
  Alcotest.(check bool) "metrics samples recorded" true (m_samples <> []);
  Alcotest.(check bool) "port views recorded" true (p_views <> []);
  Alcotest.(check bool) "same metrics samples" true (b_samples = m_samples);
  Alcotest.(check bool) "same port views" true (b_views = p_views);
  Alcotest.(check int) "no extra events" m_events b_events

let test_metrics_probe () =
  let m = Metrics.create () in
  let r =
    bottleneck_run
      ~telemetry:
        { Runner.no_telemetry with metrics = Some m; metrics_every = 2e-4 }
      ~senders:3
      ~sizes:[ 100_000; 100_000; 100_000 ]
      ()
  in
  Alcotest.(check int) "all completed" 3 r.Runner.completed;
  let names = Metrics.series_names m in
  Alcotest.(check bool) "has utilization series" true
    (List.exists
       (fun n -> n = Metrics.Name.link_util 0)
       names);
  (* Every link of the topology is probed. *)
  let util_series =
    List.filter
      (fun n ->
        String.length n > 5
        && String.sub n 0 5 = "link."
        && Filename.check_suffix n ".util")
      names
  in
  Alcotest.(check bool) "several links probed" true
    (List.length util_series >= 2);
  (* A packet whose serialization straddles a probe boundary is
     credited to the window it completes in, so a short window can read
     slightly above 1; anything past ~10% is a bug. *)
  List.iter
    (fun n ->
      Array.iter
        (fun (_, v) ->
          if v < -1e-9 || v > 1.1 then
            Alcotest.failf "utilization out of range on %s: %g" n v)
        (Metrics.series m ~name:n))
    util_series;
  (* The bottleneck carries traffic: its utilization peaks near 1. *)
  let bottleneck_util =
    List.fold_left
      (fun acc n ->
        Array.fold_left (fun a (_, v) -> max a v) acc (Metrics.series m ~name:n))
      0. util_series
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak utilization %.3f > 0.5" bottleneck_util)
    true (bottleneck_util > 0.5);
  (* With three competing PDQ flows, somebody is paused at some probe. *)
  let paused_seen =
    List.exists
      (fun n ->
        String.length n > 5
        && String.sub n 0 5 = "port."
        && Filename.check_suffix n ".flows_paused"
        && Array.exists (fun (_, v) -> v > 0.) (Metrics.series m ~name:n))
      names
  in
  Alcotest.(check bool) "paused flows observed" true paused_seen;
  (* Post-run fill: the FCT histogram matches completions. *)
  (match Metrics.histogram_summary (Metrics.histogram m Metrics.Name.flow_fct_ms) with
  | Some (n, mean_ms, _, _, _, _) ->
      Alcotest.(check int) "fct histogram count" 3 n;
      if not (feq ~eps:1e-6 (1000. *. r.Runner.mean_fct) mean_ms) then
        Alcotest.failf "fct histogram mean %.6g vs %.6g" mean_ms
          (1000. *. r.Runner.mean_fct)
  | None -> Alcotest.fail "fct histogram missing")

let protocols =
  [
    ("pdq", Runner.Pdq Pdq_core.Config.full);
    ("mpdq", Runner.mpdq ~subflows:2 ());
    ("rcp", Runner.Rcp);
    ("d3", Runner.D3);
    ("tcp", Runner.Tcp);
  ]

let test_all_protocols_emit () =
  List.iter
    (fun (name, proto) ->
      let mem = Trace.memory () in
      let m = Metrics.create () in
      let r =
        bottleneck_run
          ~telemetry:
            { Runner.no_telemetry with Runner.sinks = [ mem ]; metrics = Some m; metrics_every = 5e-4 }
          ~proto
          ~sizes:[ 30_000; 60_000 ]
          ()
      in
      if r.Runner.completed <> 2 then
        Alcotest.failf "%s: %d/2 flows completed" name r.Runner.completed;
      let evs = Trace.memory_events mem in
      let completed_events =
        List.length
          (List.filter
             (fun (_, ev) ->
               match ev with Trace.Flow_completed _ -> true | _ -> false)
             evs)
      in
      if completed_events <> 2 then
        Alcotest.failf "%s: %d completion events" name completed_events;
      if Metrics.series_names m = [] then
        Alcotest.failf "%s: metrics probe recorded nothing" name)
    protocols

let test_profiler_counts () =
  let p = Profiler.enable_global () in
  Profiler.reset p;
  let baseline = bottleneck_run () in
  Profiler.disable_global ();
  Alcotest.(check bool) "events executed" true (Profiler.events_executed p > 0);
  Alcotest.(check bool) "queue high water" true (Profiler.queue_high_water p > 0);
  Alcotest.(check bool) "sim time advanced" true (Profiler.sim_seconds p > 0.);
  Alcotest.(check bool) "cpu time nonnegative" true (Profiler.cpu_seconds p >= 0.);
  let kinds = List.map fst (Profiler.kinds p) in
  Alcotest.(check bool) "link.tx kind present" true
    (List.mem "link.tx" kinds);
  Alcotest.(check bool) "pdq kinds present" true
    (List.exists
       (fun k -> String.length k > 4 && String.sub k 0 4 = "pdq.")
       kinds);
  (* Profiling must not change results. *)
  let unprofiled = bottleneck_run () in
  Alcotest.(check bool) "profiled run identical" true
    (fcts baseline = fcts unprofiled);
  (* And the report renders. *)
  let report = Format.asprintf "%a" Profiler.pp_report p in
  Alcotest.(check bool) "report non-empty" true (String.length report > 0)

let suites =
  [
    ( "telemetry.trace",
      [
        Alcotest.test_case "event json" `Quick test_event_json;
        Alcotest.test_case "null bus" `Quick test_null_bus;
        Alcotest.test_case "memory ring" `Quick test_memory_ring;
        Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
      ] );
    ( "telemetry.metrics",
      [
        Alcotest.test_case "instruments" `Quick test_metrics_instruments;
        Alcotest.test_case "series" `Quick test_metrics_series;
        Alcotest.test_case "csv/jsonl export" `Quick test_metrics_export;
      ] );
    ( "telemetry.runner",
      [
        Alcotest.test_case "golden trace" `Quick test_golden_trace;
        Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
        Alcotest.test_case "sinks do not perturb" `Quick
          test_sinks_do_not_perturb;
        Alcotest.test_case "metrics probe" `Quick test_metrics_probe;
        Alcotest.test_case "one probe tick" `Quick test_one_probe_tick;
        Alcotest.test_case "all protocols emit" `Quick
          test_all_protocols_emit;
        Alcotest.test_case "profiler" `Quick test_profiler_counts;
      ] );
  ]
