(* In-process tests of the pdq_sim command line: one case per exit
   status of the documented discipline (0 ok, 1 bad trace,
   3 fault-aborted, 4 invariant violation, 5 timed-out, 6 sweep
   failure, 124 usage error). *)

let eval args = Pdq_cli.eval ~argv:(Array.of_list ("pdq_sim" :: args)) ()

(* Assert through the [Exit_code] variant, not bare integers: the test
   then breaks if a subcommand stops mapping its outcome through the
   discipline. *)
module Exit_code = Pdq_cli.Exit_code

let code = Exit_code.to_int

(* Distinct codes map to distinct integers, ascending, and every
   documented code must describe itself. *)
let test_exit_code_module () =
  let ints = List.map code Exit_code.all in
  Alcotest.(check (list int)) "ascending and distinct"
    (List.sort_uniq compare ints) ints;
  List.iter
    (fun c ->
      Alcotest.(check bool) "describe nonempty" true
        (String.length (Exit_code.describe c) > 0))
    Exit_code.all;
  Alcotest.(check bool) "2 is outside the discipline" false
    (List.mem 2 ints);
  Alcotest.(check int) "usage error is cmdliner's 124" 124
    (code Exit_code.Usage)

let test_ok () =
  Alcotest.(check int) "clean run exits 0" (code Exit_code.Ok) (eval [ "--flows"; "4" ])

let test_check_ok () =
  Alcotest.(check int) "validated run exits 0" (code Exit_code.Ok)
    (eval [ "--flows"; "6"; "--check" ])

let test_usage_error () =
  Alcotest.(check int) "unknown flag" (code Exit_code.Usage) (eval [ "--no-such-flag" ]);
  Alcotest.(check int) "unknown protocol" (code Exit_code.Usage) (eval [ "--proto"; "carrier-pigeon" ]);
  Alcotest.(check int) "unknown topology" (code Exit_code.Usage) (eval [ "--topo"; "moebius" ]);
  Alcotest.(check int) "--checkpoint with --check" (code Exit_code.Usage)
    (eval [ "--check"; "--checkpoint"; "x.jsonl" ]);
  Alcotest.(check int) "negative --retries" (code Exit_code.Usage) (eval [ "--retries=-1" ]);
  Alcotest.(check int) "unknown workload" (code Exit_code.Usage)
    (eval [ "--workload"; "sorcery" ]);
  Alcotest.(check int) "unknown job pattern" (code Exit_code.Usage)
    (eval [ "--workload"; "jobs"; "--job-pattern"; "gossip" ]);
  (* Out-of-range numbers are usage errors, not uncaught exceptions. *)
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args) (code Exit_code.Usage)
        (eval args))
    [
      [ "--proto"; "mpdq"; "--subflows"; "0" ];
      [ "--mean-size"; "0" ];
      [ "--mean-size"; "1" ];
      [ "--mean-size"; "2" ];
      [ "--deadline-mean"; "0" ];
      [ "--workload"; "jobs"; "--fan-in"; "0" ];
      [ "--workload"; "jobs"; "--stage-depth"; "0" ];
      [ "--workload"; "jobs"; "--job-rate"; "0" ];
      [ "--flap-mtbf"; "0" ];
      [ "--flap-mtbf"; "0.1"; "--flap-mttr"; "0" ];
      [ "--reboot-mtbf"; "0" ];
      [ "--flows=-1" ];
      [ "--workload"; "jobs"; "--job-count=-1" ];
      [ "--metrics-every"; "0" ];
      [ "--metrics-every=-1" ];
      [ "--metrics-every"; "nan" ];
      [ "--metrics-every"; "inf" ];
      [ "--jobs"; "0" ];
      [ "--jobs=-2" ];
      [ "chaos"; "--jobs"; "0" ];
      [ "--timeout=-1" ];
      [ "--timeout"; "nan" ];
      [ "--max-events=-1" ];
      [ "--max-events"; "0" ];
      [ "chaos"; "--runs"; "1"; "--timeout=-1" ];
    ]

let test_list_workloads () =
  Alcotest.(check int) "--list-workloads exits 0" (code Exit_code.Ok)
    (eval [ "--list-workloads" ])

let test_jobs_workload () =
  Alcotest.(check int) "jobs run exits 0" (code Exit_code.Ok)
    (eval [ "--workload"; "jobs"; "--job-count"; "1"; "--fan-in"; "2" ]);
  Alcotest.(check int) "jobs run with --check exits 0" (code Exit_code.Ok)
    (eval
       [ "--workload"; "jobs"; "--job-count"; "1"; "--fan-in"; "2"; "--check" ]);
  let path = Filename.temp_file "pdq_job_metrics" ".json" in
  let rc =
    eval
      [
        "--workload"; "jobs"; "--job-count"; "2"; "--fan-in"; "2";
        "--job-metrics-out"; path;
      ]
  in
  Alcotest.(check int) "job-metrics run exits 0" (code Exit_code.Ok) rc;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "metrics file is a JSON object" true
    (String.length line > 0 && line.[0] = '{')

(* Aggressive link flapping with a repair time far beyond the horizon
   cuts every path for good: the watchdogs abort and the process must
   say so. Deterministic for the fixed seed. *)
let fault_args =
  [
    "--flows"; "8"; "--mean-size"; "2000"; "--no-deadlines";
    "--flap-mtbf"; "0.002"; "--flap-mttr"; "30"; "--fault-until"; "5";
  ]

let test_fault_aborted () =
  Alcotest.(check int) "fault-aborted run exits 3" (code Exit_code.Fault_aborted) (eval fault_args)

let test_fault_aborted_sweep () =
  Alcotest.(check int) "fault-aborted sweep exits 3" (code Exit_code.Fault_aborted)
    (eval (fault_args @ [ "--seeds"; "1,2"; "--jobs"; "2" ]))

let test_invariant_violation () =
  Alcotest.(check int) "broken allocator exits 4" (code Exit_code.Invariant_violation)
    (eval [ "--proto"; "pdq-broken"; "--check"; "--flows"; "12" ])

(* Violations dominate aborts: a broken allocator under path-cutting
   faults still reports 4, not 3. *)
let test_violation_dominates_abort () =
  Alcotest.(check int) "violation takes precedence" (code Exit_code.Invariant_violation)
    (eval ([ "--proto"; "pdq-broken"; "--check" ] @ fault_args))

let test_check_out_written () =
  let path = Filename.temp_file "pdq_violations" ".jsonl" in
  let rc =
    eval [ "--proto"; "pdq-broken"; "--check-out"; path; "--flows"; "12" ]
  in
  Alcotest.(check int) "--check-out implies --check"
    (code Exit_code.Invariant_violation)
    rc;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "JSONL report written" true
    (String.length first > 0 && first.[0] = '{')

(* A 100-event budget cuts any real run short: a supervised sweep
   where every seed times out must exit 5, and a budgeted single run
   likewise. *)
let test_timed_out_sweep () =
  Alcotest.(check int) "budgeted sweep exits 5" (code Exit_code.Timed_out)
    (eval [ "--flows"; "4"; "--seeds"; "1,2"; "--max-events"; "100";
            "--keep-going" ])

let test_timed_out_single () =
  Alcotest.(check int) "budgeted single run exits 5" (code Exit_code.Timed_out)
    (eval [ "--flows"; "4"; "--max-events"; "100" ])

(* Checkpoint a 2-seed sweep, then resume it widened to 4 seeds: the
   resumed sweep must succeed and leave a checkpoint covering all
   seeds. *)
let test_checkpoint_resume_flow () =
  let path = Filename.temp_file "pdq_cli_ck" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Alcotest.(check int) "checkpointed sweep exits 0" (code Exit_code.Ok)
    (eval [ "--flows"; "4"; "--seeds"; "1,2"; "--keep-going";
            "--checkpoint"; path ]);
  Alcotest.(check int) "resumed (widened) sweep exits 0" (code Exit_code.Ok)
    (eval [ "--flows"; "4"; "--seeds"; "1,2,3,4"; "--resume"; path ]);
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "checkpoint holds all four seeds" 4 !lines

let test_report_out_written () =
  let path = Filename.temp_file "pdq_cli_report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Alcotest.(check int) "supervised sweep exits 0" (code Exit_code.Ok)
    (eval [ "--flows"; "4"; "--seeds"; "1,2"; "--timeout"; "60";
            "--report-out"; path ]);
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check bool) "JSON report written" true
    (String.length first > 0 && first.[0] = '{')

(* A sweep with --trace-out writes a simulation trace per seed next to
   the file named, and the sweep lifecycle into that file itself. *)
let test_sweep_trace_out () =
  let dir = Filename.temp_dir "pdq_cli_trace" "" in
  let file name = Filename.concat dir name in
  let non_empty name =
    Sys.file_exists (file name)
    && In_channel.with_open_bin (file name) In_channel.input_all <> ""
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (file f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  Alcotest.(check int) "traced sweep exits 0" (code Exit_code.Ok)
    (eval [ "--flows"; "4"; "--seeds"; "1,2"; "--keep-going";
            "--trace-out"; file "t.jsonl" ]);
  Alcotest.(check bool) "seed 1 trace" true (non_empty "t.seed1.jsonl");
  Alcotest.(check bool) "seed 2 trace" true (non_empty "t.seed2.jsonl");
  let lifecycle =
    In_channel.with_open_bin (file "t.jsonl") In_channel.input_lines
  in
  (* Lifecycle lines are {"t":...,"ev":"sweep_task",...}: one per seed. *)
  Alcotest.(check (list string)) "one lifecycle event per seed"
    [ "\"ev\":\"sweep_task\""; "\"ev\":\"sweep_task\"" ]
    (List.map (fun l -> List.nth (String.split_on_char ',' l) 1) lifecycle)

(* A reproducer the simulator cannot replay is a bad trace (exit 1),
   whether its plan fails validation on load (a loss probability above
   1) or names a cable the case's topology lacks (the tree has no
   0<->2), in its "faults" array or in the "adversary" array older
   reproducers carry. *)
let test_chaos_replay_bad_plan () =
  let replay ~faults ~adversary =
    let path = Filename.temp_file "pdq_repro" ".json" in
    Out_channel.with_open_bin path (fun oc ->
        Printf.fprintf oc
          ({|{"protocol":"pdq","topo":"tree","pattern":"pairs","flows":4,|}
          ^^ {|"mean_bytes":30000,"deadlines":false,"seed":7,"horizon":0.25,|}
          ^^ {|"faults":[%s],"adversary":[%s]}|})
          faults adversary);
    let rc = eval [ "chaos"; "--replay"; path ] in
    Sys.remove path;
    rc
  in
  let bad_trace = code Exit_code.Bad_trace in
  Alcotest.(check int) "out-of-range loss probability exits 1" bad_trace
    (replay ~faults:{|{"t":0,"ev":"loss","a":0,"b":1,"loss":1.5}|}
       ~adversary:"");
  Alcotest.(check int) "fault on a missing cable exits 1" bad_trace
    (replay ~faults:{|{"t":0,"ev":"link-down","a":0,"b":2}|} ~adversary:"");
  Alcotest.(check int) "adversary on a missing cable exits 1" bad_trace
    (replay ~faults:""
       ~adversary:{|{"t":0,"ev":"duplicate","a":0,"b":2,"p":0.5}|})

(* A replayed reproducer runs under --max-events like a single run: the
   budget trips before the violation shows, and the replay exits 5. *)
let test_chaos_replay_timed_out () =
  let path = Filename.temp_file "pdq_repro" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ({|{"protocol":"pdq-broken","topo":"bottleneck","pattern":"aggregation",|}
        ^ {|"flows":14,"mean_bytes":180000,"deadlines":false,"seed":130849,|}
        ^ {|"horizon":0.3418076078500474,"faults":[],"adversary":[]}|}));
  Alcotest.(check int) "unbounded replay finds the violation"
    (code Exit_code.Violation_found)
    (eval [ "chaos"; "--replay"; path ]);
  Alcotest.(check int) "--max-events 100 exits 5" (code Exit_code.Timed_out)
    (eval [ "chaos"; "--replay"; path; "--max-events"; "100" ])

let suites =
  [
    ( "cli.exit_codes",
      [
        Alcotest.test_case "exit-code discipline" `Quick
          test_exit_code_module;
        Alcotest.test_case "ok" `Quick test_ok;
        Alcotest.test_case "ok with --check" `Quick test_check_ok;
        Alcotest.test_case "usage errors" `Quick test_usage_error;
        Alcotest.test_case "list workloads" `Quick test_list_workloads;
        Alcotest.test_case "jobs workload" `Quick test_jobs_workload;
        Alcotest.test_case "fault-aborted" `Quick test_fault_aborted;
        Alcotest.test_case "fault-aborted sweep" `Quick test_fault_aborted_sweep;
        Alcotest.test_case "invariant violation" `Quick test_invariant_violation;
        Alcotest.test_case "violation dominates abort" `Quick
          test_violation_dominates_abort;
        Alcotest.test_case "check-out report" `Quick test_check_out_written;
        Alcotest.test_case "timed-out sweep" `Quick test_timed_out_sweep;
        Alcotest.test_case "timed-out single run" `Quick test_timed_out_single;
        Alcotest.test_case "checkpoint then resume" `Quick
          test_checkpoint_resume_flow;
        Alcotest.test_case "report-out" `Quick test_report_out_written;
        Alcotest.test_case "sweep trace-out" `Quick test_sweep_trace_out;
        Alcotest.test_case "chaos replay of a bad plan" `Quick
          test_chaos_replay_bad_plan;
        Alcotest.test_case "chaos replay timed out" `Quick
          test_chaos_replay_timed_out;
      ] );
  ]
