(* Tests for pdq_forensics: span reconstruction from the typed event
   stream, exact FCT attribution, offline JSONL replay fidelity, trace
   diffing, and the event-json round trip the replay path rests on. *)

module Trace = Pdq_telemetry.Trace
module Metrics = Pdq_telemetry.Metrics
module Spans = Pdq_forensics.Spans
module Attribution = Pdq_forensics.Attribution
module Replay = Pdq_forensics.Replay
module Trace_diff = Pdq_forensics.Trace_diff
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Units = Pdq_engine.Units

let feq ?(eps = 1e-12) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_float msg expected actual =
  if not (feq expected actual) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let with_temp_file suffix f =
  let path = Filename.temp_file "pdq_forensics" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Hand-built two-flow preemption lifecycle: flow 1 (more critical)
   preempts flow 0, which later also loses a packet.  Every duration is
   chosen by hand so the attribution can be checked to the digit. *)

let admitted ?deadline ~t flow =
  (t, Trace.Flow_admitted { flow; src = flow + 1; dst = 9; size = 125_000; deadline })

let two_flow_events =
  [
    admitted ~t:0. 0;
    (0., Trace.Flow_started { flow = 0 });
    admitted ~deadline:0.01 ~t:0. 1;
    (0., Trace.Flow_started { flow = 1 });
    (1e-4, Trace.Flow_established { flow = 0 });
    (1e-4, Trace.Flow_rate_set { flow = 0; rate = 1e9 });
    (2e-4, Trace.Flow_established { flow = 1 });
    (2e-4, Trace.Flow_rate_set { flow = 1; rate = 1e9 });
    (3e-4, Trace.Flow_paused { flow = 0; by = 5; preempted_by = Some 1 });
    (12e-4, Trace.Flow_completed { flow = 1; fct = 12e-4 });
    (13e-4, Trace.Flow_resumed { flow = 0; rate = 1e9 });
    (15e-4, Trace.Flow_retransmit { flow = 0; kind = "timeout" });
    (17e-4, Trace.Flow_rx { flow = 0; bytes = 1460 });
    (21e-4, Trace.Flow_completed { flow = 0; fct = 21e-4 });
  ]

let flow_report (r : Attribution.report) id =
  match List.find_opt (fun (f : Attribution.flow_report) -> f.flow = id) r.Attribution.flows with
  | Some f -> f
  | None -> Alcotest.failf "flow %d missing from attribution report" id

let test_two_flow_attribution () =
  let r = Attribution.of_events two_flow_events in
  Alcotest.(check int) "two completed flows" 2 (List.length r.Attribution.flows);
  Alcotest.(check int) "no malformed flows" 0 (List.length r.Attribution.errors);
  (* The acceptance criterion: components sum to the measured FCT
     exactly — float equality, not within an epsilon. *)
  List.iter
    (fun (f : Attribution.flow_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d components sum exactly to fct" f.flow)
        true
        (Attribution.total f.Attribution.c = f.Attribution.fct))
    r.Attribution.flows;
  let f0 = flow_report r 0 in
  check_float "flow 0 handshake" 1e-4 f0.Attribution.c.Attribution.handshake;
  check_float "flow 0 paused" 1e-3 f0.Attribution.c.Attribution.paused;
  check_float "flow 0 recovery" 2e-4 f0.Attribution.c.Attribution.recovery;
  check_float "flow 0 downtime" 0. f0.Attribution.c.Attribution.downtime;
  Alcotest.(check int) "flow 0 retransmits" 1 f0.Attribution.retransmits;
  (* The paused epoch names the preempting flow. *)
  (match f0.Attribution.blamed with
  | [ (preempter, d) ] ->
      Alcotest.(check int) "flow 0 blames flow 1" 1 preempter;
      check_float "blamed seconds" 1e-3 d
  | l -> Alcotest.failf "expected one blame entry, got %d" (List.length l));
  (match r.Attribution.blame with
  | [ (p, v, d) ] ->
      Alcotest.(check int) "blame preempter" 1 p;
      Alcotest.(check int) "blame victim" 0 v;
      check_float "blame seconds" 1e-3 d
  | l -> Alcotest.failf "expected one global blame entry, got %d" (List.length l));
  let f1 = flow_report r 1 in
  check_float "flow 1 handshake" 2e-4 f1.Attribution.c.Attribution.handshake;
  check_float "flow 1 paused" 0. f1.Attribution.c.Attribution.paused;
  check_float "paused by preemption" 1e-3 r.Attribution.paused_preempted;
  check_float "paused by controller" 0. r.Attribution.paused_controller

let test_fault_downtime () =
  (* Same lifecycle, but a fault fires inside flow 0's loss epoch: the
     recovery window reclassifies as fault-induced downtime. *)
  let with_fault =
    List.concat_map
      (fun (t, ev) ->
        if t = 15e-4 then [ (14e-4, Trace.Fault { desc = "link-down" }); (t, ev) ]
        else [ (t, ev) ])
      two_flow_events
  in
  let r = Attribution.of_events with_fault in
  let f0 = flow_report r 0 in
  check_float "recovery reclassified" 0. f0.Attribution.c.Attribution.recovery;
  check_float "downtime carries the window" 2e-4 f0.Attribution.c.Attribution.downtime;
  Alcotest.(check bool) "sum still exact" true
    (Attribution.total f0.Attribution.c = f0.Attribution.fct)

let test_malformed_sequence () =
  (* Paused before established: the reconstructor must report the flow
     instead of inventing a lifecycle for it. *)
  let events =
    [
      (0., Trace.Flow_started { flow = 7 });
      (1e-4, Trace.Flow_paused { flow = 7; by = 1; preempted_by = None });
      (0., Trace.Flow_started { flow = 8 });
      (1e-4, Trace.Flow_established { flow = 8 });
      (2e-4, Trace.Flow_completed { flow = 8; fct = 2e-4 });
    ]
  in
  let sp = Spans.reconstruct events in
  (match sp.Spans.errors with
  | [ e ] ->
      Alcotest.(check int) "error names the flow" 7 e.Spans.flow;
      Alcotest.(check string) "error message" "paused before established"
        e.Spans.message
  | l -> Alcotest.failf "expected one error, got %d" (List.length l));
  Alcotest.(check (list int)) "malformed flow excluded, healthy one kept"
    [ 8 ]
    (List.map (fun (f : Spans.flow_spans) -> f.Spans.flow) sp.Spans.flows);
  let r = Attribution.of_spans sp in
  Alcotest.(check int) "report carries the error" 1
    (List.length r.Attribution.errors)

(* ------------------------------------------------------------------ *)
(* Live bus vs. recorded JSONL replay on a real simulated run. *)

let two_flow_scenario =
  Scenario.make
    ~topo:(Scenario.Bottleneck { senders = 2 })
    ~workload:
      (Scenario.Generated
         {
           label = "two flows";
           specs =
             (fun ~seed:_ ~topo:_ ~hosts ->
               let rx = hosts.(Array.length hosts - 1) in
               [
                 { Context.src = hosts.(0); dst = rx; size = Units.mbyte 1.;
                   deadline = None; start = 0. };
                 { Context.src = hosts.(1); dst = rx; size = Units.kbyte 100.;
                   deadline = None; start = 1e-4 };
               ]);
         })
    (Runner.Pdq Pdq_core.Config.full)

let test_live_vs_replay_identical () =
  with_temp_file ".jsonl" @@ fun path ->
  let mem = Trace.memory () in
  let oc = open_out path in
  let telemetry =
    { Runner.no_telemetry with Runner.sinks = [ mem; Trace.jsonl oc ] }
  in
  ignore
    (Scenario.run
       ~opts:(Pdq_exec.Exec_opts.telemetry telemetry)
       two_flow_scenario);
  close_out oc;
  let live = Attribution.of_events (Trace.memory_events mem) in
  let replayed =
    match Replay.read_file path with
    | Ok events -> Attribution.of_events events
    | Error e -> Alcotest.failf "replay failed: %s" e
  in
  Alcotest.(check string) "text report byte-identical"
    (Attribution.to_text live) (Attribution.to_text replayed);
  Alcotest.(check string) "csv report byte-identical"
    (Attribution.to_csv live) (Attribution.to_csv replayed);
  Alcotest.(check string) "json report byte-identical"
    (Attribution.to_json live) (Attribution.to_json replayed);
  (* The simulated run satisfies the same exactness the hand-built
     stream does, and PDQ actually preempted somebody. *)
  List.iter
    (fun (f : Attribution.flow_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "simulated flow %d sums exactly" f.Attribution.flow)
        true
        (Attribution.total f.Attribution.c = f.Attribution.fct))
    live.Attribution.flows;
  Alcotest.(check bool) "the short flow preempted the long one" true
    (List.exists (fun (p, v, _) -> p = 1 && v = 0) live.Attribution.blame)

let test_replay_strict_errors () =
  with_temp_file ".jsonl" @@ fun path ->
  write_lines path
    [ {|{"t":0,"ev":"flow_started","flow":1}|}; {|{"ev":"nope"}|} ];
  (match Replay.read_file path with
  | Ok _ -> Alcotest.fail "malformed line must abort the read"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error cites line 2: %s" e)
        true (contains e ":2:"));
  (* Each of these lines is rejected with its own line number: bytes
     after the object, a number field written as a string, and a drop
     cause nobody emits. *)
  List.iter
    (fun bad ->
      write_lines path
        [ {|{"t":0,"ev":"flow_started","flow":1}|};
          {|{"t":1,"ev":"flow_started","flow":2}|}; bad ];
      match Replay.read_file path with
      | Ok _ -> Alcotest.failf "line must be rejected: %s" bad
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error cites line 3: %s" e)
            true (contains e ":3:"))
    [
      {|{"t":0,"ev":"flow_started","flow":1}x|};
      {|{"t":0,"ev":"flow_started","flow":"1"}|};
      {|{"t":0,"ev":"packet_dropped","link":1,"cause":"gremlins"}|};
    ];
  (* Blank lines and a trailing newline are tolerated. *)
  write_lines path
    [ {|{"t":0,"ev":"flow_started","flow":1}|}; "";
      {|{"t":1,"ev":"flow_completed","flow":1,"fct":1}|} ];
  match Replay.read_file path with
  | Ok events -> Alcotest.(check int) "blank lines skipped" 2 (List.length events)
  | Error e -> Alcotest.failf "blank lines must be tolerated: %s" e

(* ------------------------------------------------------------------ *)
(* Trace diffing: two hand-built runs differing only by a fault plan
   must flag only the faulted flow's downtime (and its total FCT). *)

let base_run flow1_tail =
  [
    admitted ~t:0. 0;
    (0., Trace.Flow_started { flow = 0 });
    (1e-4, Trace.Flow_established { flow = 0 });
    (0.01, Trace.Flow_completed { flow = 0; fct = 0.01 });
    admitted ~t:0. 1;
    (0., Trace.Flow_started { flow = 1 });
    (1e-4, Trace.Flow_established { flow = 1 });
  ]
  @ flow1_tail

let test_diff_flags_only_fault_downtime () =
  let before =
    Attribution.of_events
      (base_run [ (0.012, Trace.Flow_completed { flow = 1; fct = 0.012 }) ])
  in
  (* The second run is identical except a 50 ms fault outage hits flow
     1 mid-transfer; flow 0 is untouched. *)
  let after =
    Attribution.of_events
      (base_run
         [
           (0.005, Trace.Fault { desc = "link-down" });
           (0.005, Trace.Flow_retransmit { flow = 1; kind = "watchdog" });
           (0.055, Trace.Flow_rx { flow = 1; bytes = 1460 });
           (0.062, Trace.Flow_completed { flow = 1; fct = 0.062 });
         ])
  in
  let d = Trace_diff.diff ~threshold:1e-3 before after in
  Alcotest.(check (list int)) "no one-sided flows (before)" []
    d.Trace_diff.only_before;
  Alcotest.(check (list int)) "no one-sided flows (after)" []
    d.Trace_diff.only_after;
  let changed =
    List.map
      (fun (e : Trace_diff.entry) -> (e.Trace_diff.flow, e.Trace_diff.component))
      d.Trace_diff.changed
    |> List.sort compare
  in
  Alcotest.(check (list (pair int string)))
    "only flow 1's downtime (and its fct) moved"
    [ (1, "downtime"); (1, "fct") ]
    changed;
  List.iter
    (fun (e : Trace_diff.entry) ->
      check_float
        (Printf.sprintf "flow 1 %s regressed by the outage" e.Trace_diff.component)
        0.05 (Trace_diff.delta e))
    d.Trace_diff.changed;
  (* A self-diff is empty. *)
  let self = Trace_diff.diff before before in
  Alcotest.(check int) "self-diff is clean" 0
    (List.length self.Trace_diff.changed)

(* ------------------------------------------------------------------ *)
(* JSON round trip over every event constructor (satellite of the
   replay path: event_of_json must be an exact inverse). *)

let gen_event =
  let open QCheck.Gen in
  let fin = map (fun f -> if Float.is_finite f then f else 0.) float in
  let pos = small_nat in
  let str =
    oneof [ string_printable; return "a\"b\\c\nd"; return "" ]
  in
  let cause =
    oneofl [ Trace.Loss; Trace.Overflow; Trace.Link_down; Trace.Stale_route ]
  in
  oneof
    [
      (let* flow = pos and* src = pos and* dst = pos and* size = pos
       and* deadline = option fin in
       return (Trace.Flow_admitted { flow; src; dst; size; deadline }));
      map (fun flow -> Trace.Flow_started { flow }) pos;
      map (fun flow -> Trace.Flow_established { flow }) pos;
      (let* flow = pos and* by = pos and* preempted_by = option pos in
       return (Trace.Flow_paused { flow; by; preempted_by }));
      (let* flow = pos and* rate = fin in
       return (Trace.Flow_resumed { flow; rate }));
      (let* flow = pos and* rate = fin in
       return (Trace.Flow_rate_set { flow; rate }));
      (let* flow = pos and* fct = fin in
       return (Trace.Flow_completed { flow; fct }));
      map (fun flow -> Trace.Flow_terminated { flow }) pos;
      (let* flow = pos and* cause = str in
       return (Trace.Flow_aborted { flow; cause }));
      (let* flow = pos and* bytes = pos in
       return (Trace.Flow_rx { flow; bytes }));
      (let* flow = pos and* kind = str in
       return (Trace.Flow_retransmit { flow; kind }));
      map (fun switch -> Trace.Switch_flushed { switch }) pos;
      map (fun switch -> Trace.Switch_rebuilt { switch }) pos;
      (let* link = pos and* cause = cause in
       return (Trace.Packet_dropped { link; cause }));
      map (fun desc -> Trace.Fault { desc }) str;
      (let* target = pos and* action = str in
       return (Trace.Adversary { target; action }));
      (let* index = pos and* key = str and* state = str and* attempts = pos
       and* elapsed = fin and* detail = str in
       return (Trace.Sweep_task { index; key; state; attempts; elapsed; detail }));
    ]

let event_roundtrip =
  QCheck.Test.make ~name:"event_of_json inverts event_to_json exactly"
    ~count:500
    (QCheck.make
       ~print:(fun (t, ev) -> Trace.event_to_json ~time:t ev)
       QCheck.Gen.(
         let* t = map (fun f -> if Float.is_finite f then f else 0.) float
         and* ev = gen_event in
         return (t, ev)))
    (fun (t, ev) ->
      match Trace.event_of_json (Trace.event_to_json ~time:t ev) with
      | Ok (t', ev') -> t' = t && ev' = ev
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

(* ------------------------------------------------------------------ *)
(* Sweep_task events reach a JSONL sink during a supervised sweep. *)

let test_sweep_task_through_jsonl () =
  with_temp_file ".jsonl" @@ fun path ->
  let scenarios =
    List.map (Scenario.with_seed two_flow_scenario) [ 1; 2 ]
  in
  let oc = open_out path in
  let bus =
    Trace.create ~clock:Unix.gettimeofday ~sinks:[ Trace.jsonl oc ]
  in
  let sup =
    Sweep.run_supervised ~opts:(Pdq_exec.Exec_opts.jobs 2)
      ~on_event:(Sweep.emit_trace bus)
      scenarios
  in
  close_out oc;
  Alcotest.(check int) "both slots ok" 2 sup.Sweep.report.Sweep.ok;
  match Replay.read_file path with
  | Error e -> Alcotest.failf "sweep trace unreadable: %s" e
  | Ok events ->
      let tasks =
        List.filter_map
          (fun (_, ev) ->
            match ev with
            | Trace.Sweep_task { index; key; state; _ } ->
                Some (index, key, state)
            | _ -> None)
          events
      in
      Alcotest.(check int) "every event is a sweep task"
        (List.length events) (List.length tasks);
      Alcotest.(check (list (pair int string)))
        "one ok record per slot, keyed by scenario digest"
        (List.mapi (fun i s -> (i, Scenario.digest s)) scenarios)
        (List.sort compare (List.map (fun (i, k, _) -> (i, k)) tasks));
      List.iter
        (fun (_, _, state) ->
          Alcotest.(check string) "slot state" "ok" state)
        tasks

(* ------------------------------------------------------------------ *)
(* Metrics CSV field quoting (RFC 4180). *)

let test_metrics_csv_quoting () =
  with_temp_file ".csv" @@ fun path ->
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m {|odd,"name|}) ();
  Metrics.set_gauge (Metrics.gauge m "plain.name") 2.5;
  let oc = open_out path in
  Metrics.write_csv m oc;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check bool) "delimiter-carrying name is quoted and doubled" true
    (List.mem {|counter,,"odd,""name",1|} lines);
  Alcotest.(check bool) "plain names stay bare" true
    (List.mem "gauge,,plain.name,2.5" lines)

let suites =
  [
    ( "forensics.spans",
      [
        Alcotest.test_case "two-flow attribution is exact" `Quick
          test_two_flow_attribution;
        Alcotest.test_case "fault inside loss epoch becomes downtime" `Quick
          test_fault_downtime;
        Alcotest.test_case "malformed sequences are reported, not guessed"
          `Quick test_malformed_sequence;
      ] );
    ( "forensics.replay",
      [
        Alcotest.test_case "live bus and JSONL replay render identically"
          `Quick test_live_vs_replay_identical;
        Alcotest.test_case "replay is strict and line-addressed" `Quick
          test_replay_strict_errors;
        QCheck_alcotest.to_alcotest event_roundtrip;
      ] );
    ( "forensics.diff",
      [
        Alcotest.test_case "fault-only change flags only downtime" `Quick
          test_diff_flags_only_fault_downtime;
      ] );
    ( "forensics.sweep",
      [
        Alcotest.test_case "supervised sweep tasks reach a JSONL sink" `Quick
          test_sweep_task_through_jsonl;
        Alcotest.test_case "metrics csv quotes delimiter names" `Quick
          test_metrics_csv_quoting;
      ] );
  ]
