(* Tests for the scenario API and the multicore sweep executor:
   scenarios must reproduce hand-built Runner.execute results bit for bit,
   and a sweep must be order-preserving and independent of the worker
   domain count. *)

module Units = Pdq_engine.Units
module Sim = Pdq_engine.Sim
module Builder = Pdq_topo.Builder
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Config = Pdq_core.Config
module Scenario = Pdq_exec.Scenario
module Exec_opts = Pdq_exec.Exec_opts
module Sweep = Pdq_exec.Sweep
module Task = Pdq_exec.Task
module Trace = Pdq_telemetry.Trace

(* Everything in a result except the live context, for structural
   comparison across independently built simulations. *)
let fingerprint (r : Runner.result) =
  ( ( Array.to_list
        (Array.map
           (fun (f : Runner.flow_result) ->
             (f.Runner.spec, f.Runner.fct, f.Runner.met_deadline,
              f.Runner.terminated, f.Runner.aborted))
           r.Runner.flows),
      r.Runner.application_throughput,
      r.Runner.mean_fct ),
    (r.Runner.completed, r.Runner.aborted, r.Runner.counters, r.Runner.sim_end)
  )

let check_same_result msg a b =
  Alcotest.(check bool) msg true (fingerprint a = fingerprint b)

(* ------------------------------------------------------------------ *)
(* Scenario.run vs. a hand-built Runner.execute *)

let synthetic_scenario proto =
  Scenario.make ~seed:3 ~horizon:5.
    ~workload:
      (Scenario.Synthetic
         {
           pattern = Scenario.Aggregation;
           flows = 8;
           sizes = Scenario.Uniform_paper { mean_bytes = 100_000 };
           deadlines = Scenario.Exp_deadlines { mean = 0.02; floor = 3e-3 };
         })
    proto

let test_scenario_matches_handbuilt () =
  (* The scenario expands to concrete specs + options; running those
     through Runner.execute on a fresh hand-built topology must reproduce
     Scenario.run exactly. *)
  let s = synthetic_scenario (Runner.Pdq Config.full) in
  let from_scenario = Scenario.run s in
  let _, specs, options = Scenario.build s in
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let by_hand =
    Runner.execute ~options ~topo:built.Builder.topo s.Scenario.protocol specs
  in
  check_same_result "scenario = hand-built" from_scenario by_hand

let test_explicit_matches_handbuilt () =
  let specs_of hosts rx =
    [
      { Context.src = hosts.(0); dst = rx; size = Units.mbyte 1.;
        deadline = None; start = 0. };
      { Context.src = hosts.(1); dst = rx; size = Units.kbyte 100.;
        deadline = None; start = 0. };
    ]
  in
  let s =
    Scenario.make
      ~topo:(Scenario.Bottleneck { senders = 2 })
      ~workload:
        (Scenario.Generated
           {
             label = "two flows";
             specs =
               (fun ~seed:_ ~topo:_ ~hosts ->
                 specs_of hosts hosts.(Array.length hosts - 1));
           })
      Runner.Rcp
  in
  let from_scenario = Scenario.run s in
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders:2 () in
  let by_hand =
    Runner.execute ~topo:built.Builder.topo Runner.Rcp
      (specs_of built.Builder.hosts rx)
  in
  check_same_result "generated bottleneck = hand-built" from_scenario by_hand

let test_rerun_deterministic () =
  let s = synthetic_scenario Runner.Tcp in
  check_same_result "same scenario twice" (Scenario.run s) (Scenario.run s)

(* [specs_of_pairs] against the loop it stands for: cycle the pairs
   and draw each flow's deadline, when there is one, before its size. *)
let test_specs_of_pairs () =
  let module Rng = Pdq_engine.Rng in
  let module Size_dist = Pdq_workload.Size_dist in
  let module Deadline_dist = Pdq_workload.Deadline_dist in
  let module Pattern = Pdq_workload.Pattern in
  let sizes = Size_dist.uniform_paper ~mean_bytes:100_000 in
  let pairs =
    [ { Pattern.src = 1; dst = 0 }; { Pattern.src = 2; dst = 0 };
      { Pattern.src = 3; dst = 5 } ]
  in
  let by_hand deadlines flows =
    let rng = Rng.create 17 in
    let pairs = Array.of_list pairs in
    let specs = ref [] in
    for i = 0 to flows - 1 do
      let p = pairs.(i mod Array.length pairs) in
      let deadline =
        match deadlines with
        | Some d -> Some (Deadline_dist.sample d rng)
        | None -> None
      in
      let size = Size_dist.sample sizes rng in
      specs :=
        { Context.src = p.Pattern.src; dst = p.Pattern.dst; size; deadline;
          start = 0. }
        :: !specs
    done;
    List.rev !specs
  in
  List.iter
    (fun (name, deadlines) ->
      List.iter
        (fun flows ->
          let helper =
            Scenario.specs_of_pairs ~rng:(Rng.create 17) ~sizes ~deadlines
              ~flows pairs
          in
          Alcotest.(check int)
            (Printf.sprintf "%s, %d flows: count" name flows)
            flows (List.length helper);
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d flows: = hand-written loop" name flows)
            true
            (helper = by_hand deadlines flows))
        [ 2; 3; 8 ])
    [
      ("deadlines", Some (Deadline_dist.exponential ~mean:0.02 ()));
      ("no deadlines", None);
    ]

(* ------------------------------------------------------------------ *)
(* Sweep: parallel = sequential, in input order *)

let mixed_scenarios =
  List.concat_map
    (fun proto ->
      List.map
        (fun seed -> Scenario.with_seed (synthetic_scenario proto) seed)
        [ 1; 2 ])
    [ Runner.Pdq Config.full; Runner.Rcp; Runner.Tcp ]

let test_sweep_matches_sequential () =
  let seq = Sweep.map ~jobs:1 Scenario.run mixed_scenarios in
  let par = Sweep.map ~jobs:4 Scenario.run mixed_scenarios in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iteri
    (fun i (a, b) ->
      check_same_result (Printf.sprintf "scenario %d identical" i) a b)
    (List.combine seq par)

let test_map_preserves_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "input order" (List.map (fun x -> x * x) xs)
    (Sweep.map ~jobs:5 (fun x -> x * x) xs);
  Alcotest.(check (list int))
    "more jobs than items" [ 9 ]
    (Sweep.map ~jobs:8 (fun x -> x * x) [ 3 ])

let test_map_aggregates_all_errors () =
  (* Two bad slots: both must be reported, in input order, with one
     exception each — not just whichever worker crashed first. *)
  let f x = if x = 2 || x = 5 then failwith (Printf.sprintf "boom%d" x) else x in
  let observe jobs =
    match Sweep.map ~jobs f (List.init 8 Fun.id) with
    | _ -> Alcotest.fail "expected Sweep_errors"
    | exception Sweep.Sweep_errors errs ->
        List.map
          (fun (i, e) ->
            (i, match e with Failure m -> m | e -> Printexc.to_string e))
          errs
  in
  let expected = [ (2, "boom2"); (5, "boom5") ] in
  Alcotest.(check (list (pair int string))) "jobs:1" expected (observe 1);
  Alcotest.(check (list (pair int string))) "jobs:3" expected (observe 3)

let test_map_budget_cancels () =
  (* A tripped budget reaches the caller as the original Sim.Cancelled
     value for every slot, on the calling domain and on spawned ones. *)
  let s = synthetic_scenario (Runner.Pdq Config.full) in
  let observe jobs =
    match
      Sweep.map ~jobs ~budget:(Exec_opts.budget ~events:200 ()) Scenario.run
        [ s; Scenario.with_seed s 2 ]
    with
    | _ -> Alcotest.fail "expected Sweep_errors"
    | exception Sweep.Sweep_errors errs ->
        List.map
          (fun (i, e) ->
            ( i,
              match e with
              | Sim.Cancelled _ -> "cancelled"
              | e -> Printexc.to_string e ))
          errs
  in
  let expected = [ (0, "cancelled"); (1, "cancelled") ] in
  Alcotest.(check (list (pair int string))) "jobs:1" expected (observe 1);
  Alcotest.(check (list (pair int string))) "jobs:2" expected (observe 2)

let test_default_jobs_env () =
  let restore = Sys.getenv_opt "PDQ_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PDQ_JOBS" (Option.value restore ~default:""))
    (fun () ->
      Unix.putenv "PDQ_JOBS" "3";
      Alcotest.(check int) "PDQ_JOBS honored" 3 (Sweep.default_jobs ());
      Unix.putenv "PDQ_JOBS" "0";
      Alcotest.(check int) "clamped to >= 1" 1 (Sweep.default_jobs ());
      Unix.putenv "PDQ_JOBS" "not-a-number";
      Alcotest.(check int) "garbage falls back"
        (Domain.recommended_domain_count ())
        (Sweep.default_jobs ()))

let test_average_matches_manual () =
  let f seed = float_of_int (seed * seed) in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let manual =
    List.fold_left (fun acc s -> acc +. f s) 0. seeds
    /. float_of_int (List.length seeds)
  in
  Alcotest.(check (float 0.)) "jobs:1" manual (Sweep.average ~jobs:1 ~seeds f);
  Alcotest.(check (float 0.)) "jobs:4" manual (Sweep.average ~jobs:4 ~seeds f)

let test_sweep_with_profiler_enabled () =
  (* The global profiler must tolerate runs on worker domains: enable,
     sweep, report, reset — no crash, and the sweep output unchanged. *)
  let p = Pdq_engine.Profiler.enable_global () in
  let expected = Sweep.map ~jobs:1 Scenario.run mixed_scenarios in
  let got = Sweep.map ~jobs:4 Scenario.run mixed_scenarios in
  ignore (Format.asprintf "%a" Pdq_engine.Profiler.pp_report p);
  Pdq_engine.Profiler.reset p;
  Pdq_engine.Profiler.disable_global ();
  List.iteri
    (fun i (a, b) ->
      check_same_result (Printf.sprintf "profiled scenario %d" i) a b)
    (List.combine expected got)

(* ------------------------------------------------------------------ *)
(* Supervised execution: keep-going, budgets, retries, checkpoints *)

(* A deterministic shape for comparing task lists across jobs values
   (wall times vary run to run; Task.pp deliberately omits them). *)
let task_shape t = Format.asprintf "%a" Task.pp t

let test_supervise_keep_going () =
  let f x = if x = 3 then failwith "boom" else x * 10 in
  let observe jobs =
    let sup =
      Sweep.supervise ~jobs ~key:string_of_int f
        (List.init 6 Fun.id)
    in
    ( List.map task_shape sup.Sweep.tasks,
      (sup.Sweep.report.Sweep.ok, sup.Sweep.report.Sweep.failed) )
  in
  let shapes1, counts1 = observe 1 in
  let shapes4, counts4 = observe 4 in
  Alcotest.(check (list string)) "jobs:4 = jobs:1" shapes1 shapes4;
  Alcotest.(check (pair int int)) "5 ok, 1 failed" (5, 1) counts1;
  Alcotest.(check (pair int int)) "counts jobs-independent" counts1 counts4;
  (match shapes1 with
  | [ _; _; _; s3; _; _ ] ->
      Alcotest.(check bool) "slot 3 failed" true
        (String.length s3 >= 6 && String.sub s3 0 6 = "FAILED")
  | _ -> Alcotest.fail "expected 6 slots")

let test_supervise_stop_early () =
  (* keep_going:false with one worker: everything after the crash is
     settled Skipped, never executed. *)
  let ran = Atomic.make 0 in
  let f x =
    Atomic.incr ran;
    if x = 2 then failwith "boom" else x
  in
  let sup =
    Sweep.supervise ~jobs:1 ~keep_going:false ~key:string_of_int f
      (List.init 6 Fun.id)
  in
  Alcotest.(check (list string))
    "ok ok failed skipped..."
    [ "ok"; "ok"; "failed"; "skipped"; "skipped"; "skipped" ]
    (List.map Task.state sup.Sweep.tasks);
  Alcotest.(check int) "slots 3..5 never ran" 3 (Atomic.get ran);
  Alcotest.(check int) "report.skipped" 3 sup.Sweep.report.Sweep.skipped

let test_supervise_event_budget () =
  (* A real scenario against a 200-event budget: the simulation is cut
     off mid-run and the slot settles Timed_out naming the budget. *)
  let s = synthetic_scenario (Runner.Pdq Config.full) in
  let sup =
    Sweep.supervise ~jobs:2 ~budget:(Exec_opts.budget ~events:200 ())
      ~key:Scenario.digest Scenario.run
      [ s; Scenario.with_seed s 2 ]
  in
  List.iter
    (fun t ->
      match t with
      | Task.Timed_out { Task.budget; attempts; _ } ->
          Alcotest.(check string) "tripped budget" "events>200" budget;
          Alcotest.(check int) "timeouts are not retried" 1 attempts
      | t -> Alcotest.fail ("expected Timed_out, got " ^ Task.state t))
    sup.Sweep.tasks

let test_supervise_wall_budget () =
  (* A runaway fixture that reschedules itself forever: only the
     wall-clock budget can stop it. *)
  let runaway () =
    let sim = Sim.create () in
    let rec tick () = ignore (Sim.schedule sim ~delay:1e-6 tick) in
    ignore (Sim.schedule sim ~delay:0. tick);
    Sim.run sim
  in
  let sup =
    Sweep.supervise ~jobs:1
      ~budget:(Exec_opts.budget ~wall:0.05 ())
      ~key:(fun () -> "runaway")
      runaway [ () ]
  in
  match sup.Sweep.tasks with
  | [ Task.Timed_out { Task.budget; _ } ] ->
      Alcotest.(check bool) "wall budget tripped" true
        (String.length budget >= 5 && String.sub budget 0 5 = "wall>")
  | [ t ] -> Alcotest.fail ("expected Timed_out, got " ^ Task.state t)
  | _ -> Alcotest.fail "expected one slot"

let test_supervise_retry () =
  let tries = Atomic.make 0 in
  let f () =
    if Atomic.fetch_and_add tries 1 = 0 then failwith "flaky" else 42
  in
  let sup =
    Sweep.supervise ~jobs:1
      ~attempts:3
      ~key:(fun () -> "flaky")
      f [ () ]
  in
  (match sup.Sweep.tasks with
  | [ Task.Ok 42 ] -> ()
  | [ t ] -> Alcotest.fail ("expected Ok after retry, got " ^ Task.state t)
  | _ -> Alcotest.fail "expected one slot");
  Alcotest.(check int) "two attempts executed" 2
    sup.Sweep.report.Sweep.attempts

let test_supervise_caller_crash () =
  (* The first event emitted on the calling domain (worker 0) raises in
     its trace sink, killing the caller's claim loop outside any
     attempt: the crash is settled like a spawned worker's, every slot
     still settles, and the exception does not escape. *)
  let caller = Domain.self () in
  let raised = Atomic.make false and caller_crashed = Atomic.make false in
  let trace =
    Trace.create ~clock:Unix.gettimeofday
      ~sinks:
        [
          Trace.callback (fun ~time:_ ev ->
              match ev with
              | Trace.Sweep_task { state = "crashed"; key = "worker:0"; _ } ->
                  Atomic.set caller_crashed true
              | _ ->
                  if
                    Domain.self () = caller
                    && not (Atomic.exchange raised true)
                  then failwith "observer");
        ]
  in
  (* A spawned worker's slot waits for the caller's crash, so the
     spawned worker cannot drain the sweep before the caller claims. *)
  let f x =
    while Domain.self () <> caller && not (Atomic.get raised) do
      Domain.cpu_relax ()
    done;
    x * 10
  in
  let sup =
    Sweep.supervise ~jobs:2 ~trace ~key:string_of_int f
      (List.init 8 Fun.id)
  in
  Alcotest.(check bool) "observer raised once" true (Atomic.get raised);
  Alcotest.(check bool) "worker 0 crash reported" true
    (Atomic.get caller_crashed);
  Alcotest.(check (list int)) "every slot settled Ok"
    (List.init 8 (fun x -> x * 10))
    (List.map Task.get_ok sup.Sweep.tasks)

(* A checkpointable scenario sweep: scenario digests as slot keys, the
   result codec for the checkpoint file. *)
let supervise_scenarios ?checkpoint ?resume ~jobs scenarios =
  Sweep.supervise ~jobs ?checkpoint ?resume ~codec:Scenario.result_codec
    ~key:Scenario.digest Scenario.run scenarios

let supervised_ok_results sup =
  List.map
    (fun t ->
      match Task.ok t with
      | Some r -> r
      | None -> Alcotest.fail ("non-ok slot: " ^ task_shape t))
    sup.Sweep.tasks

let test_checkpoint_resume () =
  let scenarios =
    List.map
      (Scenario.with_seed (synthetic_scenario (Runner.Pdq Config.full)))
      [ 1; 2; 3; 4 ]
  in
  let path = Filename.temp_file "pdq_ck" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* First pass: seeds 3 and 4 crash; seeds 1 and 2 land in the
     checkpoint. *)
  let crashy (s : Scenario.t) =
    if s.Scenario.seed > 2 then failwith "injected" else Scenario.run s
  in
  let first =
    Sweep.supervise ~jobs:2 ~checkpoint:path ~codec:Scenario.result_codec
      ~key:Scenario.digest crashy scenarios
  in
  Alcotest.(check (pair int int))
    "first pass: 2 ok, 2 failed" (2, 2)
    (first.Sweep.report.Sweep.ok, first.Sweep.report.Sweep.failed);
  (* Resume with the honest function: only the failed seeds re-run,
     and the merged results are bit-identical to an uninterrupted
     sequential sweep. *)
  let resumed =
    supervise_scenarios ~jobs:2 ~checkpoint:path ~resume:path scenarios
  in
  Alcotest.(check int) "2 slots resumed" 2 resumed.Sweep.report.Sweep.resumed;
  Alcotest.(check int) "all ok after resume" 4 resumed.Sweep.report.Sweep.ok;
  let fresh = Sweep.map ~jobs:1 Scenario.run scenarios in
  List.iteri
    (fun i (a, b) ->
      check_same_result (Printf.sprintf "resumed slot %d = fresh" i) a b;
      (* Byte-equality of the encoded payloads is the strongest form
         of "bit-identical" we can assert across the codec. *)
      Alcotest.(check bool)
        (Printf.sprintf "slot %d encodes identically" i)
        true
        (Scenario.result_codec.Task.encode a
        = Scenario.result_codec.Task.encode b))
    (List.combine (supervised_ok_results resumed) fresh)

let test_checkpoint_torn_line () =
  let scenarios =
    List.map
      (Scenario.with_seed (synthetic_scenario Runner.Tcp))
      [ 1; 2; 3 ]
  in
  let path = Filename.temp_file "pdq_ck_torn" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let first =
    supervise_scenarios ~jobs:1 ~checkpoint:path
      (List.filteri (fun i _ -> i < 2) scenarios)
  in
  Alcotest.(check int) "two checkpointed" 2 first.Sweep.report.Sweep.ok;
  (* Simulate a kill -9 mid-write: a torn, unterminated JSON fragment
     at the tail. The loader must skip it, not die. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"k\":\"dead";
  close_out oc;
  (* Resume into the same file, as [--resume F] does: the re-run slot
     is appended after the fragment and must land on a line of its own. *)
  let resumed =
    supervise_scenarios ~jobs:1 ~checkpoint:path ~resume:path scenarios
  in
  Alcotest.(check int) "valid lines resumed" 2
    resumed.Sweep.report.Sweep.resumed;
  Alcotest.(check int) "missing slot re-run" 3 resumed.Sweep.report.Sweep.ok;
  let fresh = Sweep.map ~jobs:1 Scenario.run scenarios in
  List.iteri
    (fun i (a, b) ->
      check_same_result (Printf.sprintf "torn-resume slot %d" i) a b)
    (List.combine (supervised_ok_results resumed) fresh);
  let again =
    supervise_scenarios ~jobs:1 ~resume:path scenarios
  in
  Alcotest.(check (pair int int))
    "second resume: all 3 resumed, none stale" (3, 0)
    (again.Sweep.report.Sweep.resumed, again.Sweep.report.Sweep.stale)

let test_acceptance_100_slots () =
  (* The headline scenario: a 100-slot sweep with one crashing and one
     hanging slot under keep-going + a wall budget yields 98 Ok plus
     two structured casualties; resuming from the checkpoint with the
     bugs fixed re-executes only those two and reproduces exactly what
     an undamaged sweep computes. *)
  let int_codec = { Task.encode = string_of_int; decode = int_of_string } in
  let runaway () =
    let sim = Sim.create () in
    let rec tick () = ignore (Sim.schedule sim ~delay:1e-6 tick) in
    ignore (Sim.schedule sim ~delay:0. tick);
    Sim.run sim;
    assert false
  in
  let buggy x =
    if x = 13 then failwith "crash"
    else if x = 57 then runaway ()
    else x * 2
  in
  let honest x = x * 2 in
  let inputs = List.init 100 Fun.id in
  let path = Filename.temp_file "pdq_accept" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let first =
    Sweep.supervise ~jobs:4
      ~budget:(Exec_opts.budget ~wall:0.05 ())
      ~keep_going:true ~checkpoint:path ~codec:int_codec
      ~key:string_of_int buggy inputs
  in
  let r = first.Sweep.report in
  Alcotest.(check (list int)) "98 ok / 1 failed / 1 timed-out"
    [ 98; 1; 1; 0 ]
    [ r.Sweep.ok; r.Sweep.failed; r.Sweep.timed_out; r.Sweep.skipped ];
  (match (List.nth first.Sweep.tasks 13, List.nth first.Sweep.tasks 57) with
  | Task.Failed _, Task.Timed_out _ -> ()
  | a, b ->
      Alcotest.fail
        (Printf.sprintf "slot 13 %s, slot 57 %s" (Task.state a) (Task.state b)));
  let resumed =
    Sweep.supervise ~jobs:4 ~checkpoint:path ~resume:path ~codec:int_codec
      ~key:string_of_int honest inputs
  in
  Alcotest.(check int) "only the casualties re-ran" 98
    resumed.Sweep.report.Sweep.resumed;
  Alcotest.(check (list int)) "resume = undamaged sweep"
    (List.map honest inputs)
    (List.map Task.get_ok resumed.Sweep.tasks)

let test_supervised_matches_plain_run () =
  (* The supervisor must not perturb results: a fully-Ok supervised
     sweep is bit-identical to [Sweep.map], at any jobs count. *)
  let sup = supervise_scenarios ~jobs:4 mixed_scenarios in
  let plain = Sweep.map ~jobs:1 Scenario.run mixed_scenarios in
  Alcotest.(check int) "all ok"
    (List.length mixed_scenarios)
    sup.Sweep.report.Sweep.ok;
  List.iteri
    (fun i (a, b) ->
      check_same_result (Printf.sprintf "supervised slot %d" i) a b)
    (List.combine (supervised_ok_results sup) plain)

(* ------------------------------------------------------------------ *)
(* CLI-facing parsers *)

let test_parsers () =
  (match Scenario.protocol_of_string "pdq" with
  | Ok (Runner.Pdq _) -> ()
  | _ -> Alcotest.fail "pdq should parse");
  (match Scenario.protocol_of_string ~subflows:4 "mpdq" with
  | Ok (Runner.Mpdq { subflows = 4; _ }) -> ()
  | _ -> Alcotest.fail "mpdq should parse with subflows");
  (match Scenario.protocol_of_string "nosuch" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad protocol must be an Error");
  (match Scenario.topo_of_string "fat-tree" with
  | Ok (Scenario.Fat_tree _) -> ()
  | _ -> Alcotest.fail "fat-tree should parse");
  (match Scenario.topo_of_string "moebius" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad topology must be an Error");
  (match Scenario.pattern_of_string "permutation" with
  | Ok Scenario.Random_permutation -> ()
  | _ -> Alcotest.fail "permutation should parse");
  (match Scenario.pattern_of_string "chaos" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad pattern must be an Error")

(* A budget passed to a single run bounds it exactly like a sweep
   attempt, on every single-run entry point: it is installed before the
   build creates the simulator, which reads its cancel hook there.
   Telemetry sinks must not perturb the result. *)
let test_exec_opts_budget () =
  let s = synthetic_scenario (Runner.Pdq Config.full) in
  let budget = Exec_opts.budget ~events:200 () in
  let cancelled name run =
    match run () with
    | () -> Alcotest.failf "%s: 200-event budget should have tripped" name
    | exception Sim.Cancelled { reason; _ } ->
        Alcotest.(check string) (name ^ ": reason") "events>200" reason
  in
  cancelled "run" (fun () -> ignore (Scenario.run ~budget s));
  cancelled "run_jobs" (fun () -> ignore (Scenario.run_jobs ~budget s));
  cancelled "run_checked" (fun () -> ignore (Scenario.run_checked ~budget s));
  let mem = Pdq_telemetry.Trace.memory () in
  let telemetry = { Runner.no_telemetry with Runner.sinks = [ mem ] } in
  let with_tel = Scenario.run ~telemetry s in
  check_same_result "telemetry does not perturb" (Scenario.run s) with_tel;
  Alcotest.(check bool) "sinks saw events" true
    (Pdq_telemetry.Trace.memory_events mem <> [])

let suites =
  [
    ( "exec.scenario",
      [
        Alcotest.test_case "synthetic = hand-built" `Quick
          test_scenario_matches_handbuilt;
        Alcotest.test_case "generated = hand-built" `Quick
          test_explicit_matches_handbuilt;
        Alcotest.test_case "rerun deterministic" `Quick
          test_rerun_deterministic;
        Alcotest.test_case "specs_of_pairs = deadline-then-size loop" `Quick
          test_specs_of_pairs;
        Alcotest.test_case "parsers" `Quick test_parsers;
        Alcotest.test_case "exec-opts budget + telemetry" `Quick
          test_exec_opts_budget;
      ] );
    ( "exec.sweep",
      [
        Alcotest.test_case "jobs:4 = jobs:1 on mixed roster" `Quick
          test_sweep_matches_sequential;
        Alcotest.test_case "map preserves order" `Quick
          test_map_preserves_order;
        Alcotest.test_case "map aggregates all errors" `Quick
          test_map_aggregates_all_errors;
        Alcotest.test_case "map budget raises Cancelled" `Quick
          test_map_budget_cancels;
        Alcotest.test_case "PDQ_JOBS env" `Quick test_default_jobs_env;
        Alcotest.test_case "average = manual mean" `Quick
          test_average_matches_manual;
        Alcotest.test_case "profiler-safe" `Quick
          test_sweep_with_profiler_enabled;
      ] );
    ( "exec.supervise",
      [
        Alcotest.test_case "keep-going settles failures" `Quick
          test_supervise_keep_going;
        Alcotest.test_case "stop-early skips the rest" `Quick
          test_supervise_stop_early;
        Alcotest.test_case "event budget times out" `Quick
          test_supervise_event_budget;
        Alcotest.test_case "wall budget stops a runaway" `Quick
          test_supervise_wall_budget;
        Alcotest.test_case "transient failure retries" `Quick
          test_supervise_retry;
        Alcotest.test_case "checkpoint + resume bit-identical" `Quick
          test_checkpoint_resume;
        Alcotest.test_case "torn checkpoint line skipped" `Quick
          test_checkpoint_torn_line;
        Alcotest.test_case "supervised = plain run" `Quick
          test_supervised_matches_plain_run;
        Alcotest.test_case "100 slots, one crash, one hang" `Quick
          test_acceptance_100_slots;
        Alcotest.test_case "caller worker crash settles" `Quick
          test_supervise_caller_crash;
      ] );
  ]
