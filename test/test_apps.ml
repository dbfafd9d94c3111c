(* Tests for pdq_apps: job DSL validation, deadline propagation, plan
   compilation, the runtime job tracker (stage detection, dynamic
   injection, unclean-stage failure), job metrics and the jobs
   workload end to end through Scenario/Sweep. *)

module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Builder = Pdq_topo.Builder
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Trace = Pdq_telemetry.Trace
module Size_dist = Pdq_workload.Size_dist
module Job = Pdq_apps.Job
module Job_plan = Pdq_apps.Job_plan
module Job_tracker = Pdq_apps.Job_tracker
module Job_metrics = Pdq_apps.Job_metrics
module Job_arrivals = Pdq_apps.Job_arrivals

let fixed = Size_dist.fixed

(* ------------------------------------------------------------------ *)
(* Job DSL validation. *)

let test_job_validation () =
  (match Job.make ~name:"empty" [] with
  | _ -> Alcotest.fail "empty stage list accepted"
  | exception Invalid_argument _ -> ());
  (let bad_dep () =
     ignore
       (Job.make ~name:"bad"
          [
            Job.stage ~sizes:(fixed 1000) (Job.Fan_out { workers = 2 });
            Job.stage ~deps:[ 1 ] ~sizes:(fixed 1000)
              (Job.Fan_in { workers = 2 });
          ])
   in
   match bad_dep () with
   | () -> Alcotest.fail "self/forward dependency accepted"
   | exception Invalid_argument _ -> ());
  (match Job.make ~deadline:0. ~name:"d" [ Job.stage ~sizes:(fixed 1) Job.Transfer ] with
  | _ -> Alcotest.fail "non-positive deadline accepted"
  | exception Invalid_argument _ -> ());
  match
    Job.make ~name:"w"
      [ Job.stage ~sizes:(fixed 1) (Job.Fan_out { workers = 0 }) ]
  with
  | _ -> Alcotest.fail "zero width accepted"
  | exception Invalid_argument _ -> ()

let test_canonical_shapes () =
  let pa =
    Job.partition_aggregate ~rounds:2 ~name:"pa" ~workers:4
      ~response_sizes:(fixed 10_000) ()
  in
  Alcotest.(check int) "pa stages" 4 (Array.length pa.Job.stages);
  Alcotest.(check int) "pa flows" 16 (Job.flow_count pa);
  Alcotest.(check (array int)) "pa levels" [| 0; 1; 2; 3 |] (Job.levels pa);
  let mr =
    Job.map_reduce ~name:"mr" ~mappers:3 ~reducers:2
      ~shuffle_sizes:(fixed 1000) ~output_sizes:(fixed 1000) ()
  in
  Alcotest.(check int) "mr flows upper bound" 8 (Job.flow_count mr);
  let pipe = Job.pipeline ~name:"p" ~depth:3 ~sizes:(fixed 1000) () in
  Alcotest.(check int) "pipeline flows" 3 (Job.flow_count pipe);
  Alcotest.(check (array int)) "pipeline levels" [| 0; 1; 2 |] (Job.levels pipe)

(* ------------------------------------------------------------------ *)
(* Deadline propagation: job -> stage slices. *)

let test_stage_deadlines_split () =
  (* Fan-out weight = 1 x 2000 B; fan-in weight = 4 x 100 KB. With a
     1 s deadline both slices clear the floor, so they partition the
     job deadline exactly (up to float rounding). *)
  let pa =
    Job.partition_aggregate ~deadline:1.0 ~name:"pa" ~workers:4
      ~response_sizes:(fixed 100_000) ()
  in
  let slices = Job.stage_deadlines pa in
  Alcotest.(check int) "one slice per stage" 2 (Array.length slices);
  let d0 = Option.get slices.(0) and d1 = Option.get slices.(1) in
  Alcotest.(check bool) "fan-in gets the lion's share" true (d1 > 100. *. d0);
  Alcotest.(check bool)
    (Printf.sprintf "slices sum to the job deadline (got %.17g)" (d0 +. d1))
    true
    (abs_float (d0 +. d1 -. 1.0) < 1e-9);
  (* Expected proportional split: w0 = 2000, w1 = 400000. *)
  let w0 = 2000. and w1 = 400_000. in
  Alcotest.(check bool) "proportional to level weight" true
    (abs_float (d0 -. (w0 /. (w0 +. w1))) < 1e-12
    && abs_float (d1 -. (w1 /. (w0 +. w1))) < 1e-12)

let test_stage_deadlines_floor () =
  (* A 10 ms job deadline gives the request stage a ~50 us share,
     clipped up to the 3 ms floor — so the clipped slices exceed the
     job deadline (documented behaviour for very tight jobs). *)
  let pa =
    Job.partition_aggregate ~deadline:0.01 ~name:"pa" ~workers:4
      ~response_sizes:(fixed 100_000) ()
  in
  let slices = Job.stage_deadlines pa in
  let d0 = Option.get slices.(0) and d1 = Option.get slices.(1) in
  Alcotest.(check (float 0.)) "request slice clipped to the floor" 3e-3 d0;
  Alcotest.(check bool) "response slice above floor" true (d1 > 3e-3);
  Alcotest.(check bool) "clipped sum exceeds the job deadline" true
    (d0 +. d1 > 0.01);
  (* A custom floor moves the clip point. *)
  let slices = Job.stage_deadlines ~floor:1e-5 pa in
  let d0 = Option.get slices.(0) in
  Alcotest.(check bool) "smaller floor, smaller clip" true (d0 < 3e-3 && d0 >= 1e-5)

let test_stage_deadlines_none () =
  let pa =
    Job.partition_aggregate ~name:"pa" ~workers:2 ~response_sizes:(fixed 1000) ()
  in
  Array.iter
    (fun s -> Alcotest.(check bool) "no deadline, no slices" true (s = None))
    (Job.stage_deadlines pa)

(* ------------------------------------------------------------------ *)
(* Plan compilation. *)

let tree_hosts () =
  let sim = Sim.create () in
  (Builder.single_rooted_tree ~sim ()).Builder.hosts

let test_compile_sanity () =
  let hosts = tree_hosts () in
  let rng = Rng.create 42 in
  let job =
    Job.map_reduce ~deadline:0.1 ~name:"mr" ~mappers:4 ~reducers:4
      ~shuffle_sizes:(fixed 50_000) ~output_sizes:(fixed 20_000) ()
  in
  let plan = Job_plan.compile ~rng ~hosts ~arrival:0.5 job in
  Alcotest.(check string) "name" "mr" plan.Job_plan.name;
  Alcotest.(check (float 0.)) "arrival" 0.5 plan.Job_plan.arrival;
  Alcotest.(check bool) "within flow-count bound" true
    (Job_plan.flow_count plan <= Job.flow_count job);
  let host_set = Array.to_list hosts in
  Array.iter
    (fun (st : Job_plan.stage_plan) ->
      Array.iter
        (fun (f : Job_plan.flow_site) ->
          Alcotest.(check bool) "src is a host" true (List.mem f.Job_plan.src host_set);
          Alcotest.(check bool) "dst is a host" true (List.mem f.Job_plan.dst host_set);
          Alcotest.(check bool) "no self flow" true (f.Job_plan.src <> f.Job_plan.dst);
          Alcotest.(check bool) "positive size" true (f.Job_plan.size > 0))
        st.Job_plan.flows)
    plan.Job_plan.stages;
  (* Deadlines propagated to every stage of a deadline job. *)
  Array.iter
    (fun (st : Job_plan.stage_plan) ->
      Alcotest.(check bool) "stage deadline present" true
        (st.Job_plan.deadline <> None))
    plan.Job_plan.stages

let test_compile_determinism () =
  let hosts = tree_hosts () in
  let job =
    Job.partition_aggregate ~name:"pa" ~workers:3
      ~response_sizes:(Size_dist.uniform_paper ~mean_bytes:100_000) ()
  in
  let p1 = Job_plan.compile ~rng:(Rng.create 7) ~hosts ~arrival:0. job in
  let p2 = Job_plan.compile ~rng:(Rng.create 7) ~hosts ~arrival:0. job in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2)

let test_compile_too_few_hosts () =
  let hosts = tree_hosts () in
  (* 12 hosts: a master plus 12 workers does not fit. *)
  let job =
    Job.partition_aggregate ~name:"pa" ~workers:12
      ~response_sizes:(fixed 1000) ()
  in
  match Job_plan.compile ~rng:(Rng.create 1) ~hosts ~arrival:0. job with
  | _ -> Alcotest.fail "compile accepted an oversized worker pool"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Job tracker unit tests: a hand-driven trace bus, no simulation. *)

let tracker_fixture ~workers =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let ctx =
    Context.create ~sim ~topo:built.Builder.topo ~rng:(Rng.create 0)
      ()
  in
  let job =
    Job.partition_aggregate ~deadline:0.5 ~name:"pa" ~workers
      ~response_sizes:(fixed 10_000) ()
  in
  let plan =
    Job_plan.compile ~rng:(Rng.create 3) ~hosts:built.Builder.hosts ~arrival:0.
      job
  in
  let specs = Job_tracker.initial_specs [ plan ] in
  let spawned = ref [] in
  let spawn spec =
    spawned := spec :: !spawned;
    Context.add_flow ctx spec
  in
  (* Register the initial specs so the tracker's id mirror (0..n-1)
     matches the context's assignment, exactly like the runner. *)
  List.iter (fun spec -> ignore (Context.add_flow ctx spec)) specs;
  let tracker = Job_tracker.create ~spawn [ plan ] in
  let clock = ref 0. in
  let bus =
    Trace.create ~clock:(fun () -> !clock) ~sinks:[ Job_tracker.sink tracker ]
  in
  (tracker, bus, clock, spawned, plan)

let test_tracker_injects_on_stage_completion () =
  let tracker, bus, clock, spawned, plan = tracker_fixture ~workers:2 in
  Alcotest.(check int) "nothing spawned yet" 0 (List.length !spawned);
  clock := 1e-3;
  Trace.emit bus (Trace.Flow_completed { flow = 0; fct = 1e-3 });
  Alcotest.(check int) "stage incomplete, no injection" 0 (List.length !spawned);
  clock := 2e-3;
  Trace.emit bus (Trace.Flow_completed { flow = 1; fct = 2e-3 });
  Alcotest.(check int) "fan-in injected when fan-out finished" 2
    (List.length !spawned);
  let stage1 = plan.Job_plan.stages.(1) in
  List.iteri
    (fun i (spec : Context.flow_spec) ->
      Alcotest.(check (float 0.)) "injected at the bus clock" 2e-3
        spec.Context.start;
      Alcotest.(check bool) "carries the stage deadline" true
        (spec.Context.deadline = stage1.Job_plan.deadline);
      ignore i)
    !spawned;
  (* Finish the responses (ids 2 and 3, assigned in spawn order). *)
  clock := 5e-3;
  Trace.emit bus (Trace.Flow_completed { flow = 2; fct = 3e-3 });
  clock := 7e-3;
  Trace.emit bus (Trace.Flow_completed { flow = 3; fct = 5e-3 });
  let report = Job_tracker.report tracker in
  Alcotest.(check int) "job completed" 1 report.Job_metrics.completed;
  let j = report.Job_metrics.jobs.(0) in
  (* JCT is the bus clock of the last terminal event, verbatim. *)
  Alcotest.(check bool) "bit-exact JCT" true (j.Job_metrics.jct = Some 7e-3);
  Alcotest.(check bool) "straggler is the finishing flow" true
    (j.Job_metrics.straggler = Some 3);
  Alcotest.(check bool) "met the 0.5 s deadline" true j.Job_metrics.met_deadline

let test_tracker_unclean_stage_fails_job () =
  let tracker, bus, clock, spawned, _plan = tracker_fixture ~workers:2 in
  clock := 1e-3;
  Trace.emit bus (Trace.Flow_completed { flow = 0; fct = 1e-3 });
  clock := 2e-3;
  Trace.emit bus (Trace.Flow_terminated { flow = 1 });
  Alcotest.(check int) "unclean stage never injects downstream" 0
    (List.length !spawned);
  (* A late duplicate terminal event for flow 1 (the context can emit
     Flow_completed after termination) must not resurrect the stage. *)
  clock := 3e-3;
  Trace.emit bus (Trace.Flow_completed { flow = 1; fct = 3e-3 });
  Alcotest.(check int) "duplicate terminal ignored" 0 (List.length !spawned);
  let report = Job_tracker.report tracker in
  Alcotest.(check int) "job failed" 1 report.Job_metrics.failed;
  let j = report.Job_metrics.jobs.(0) in
  Alcotest.(check bool) "no JCT for a failed job" true (j.Job_metrics.jct = None);
  Alcotest.(check bool) "deadline counted as missed" false
    j.Job_metrics.met_deadline;
  let s1 = j.Job_metrics.stages.(1) in
  Alcotest.(check bool) "downstream stage never injected" true
    (s1.Job_metrics.injected_at = None)

(* ------------------------------------------------------------------ *)
(* End to end: a two-stage partition-aggregate job through the packet
   simulator, with the injection ordering and JCT checked against the
   recorded trace (the ISSUE's acceptance criteria). *)

let jobs_scenario ?(count = 1) ?(width = 4) ?(deadlines = Scenario.No_deadlines)
    ?(seed = 1) protocol =
  Scenario.make ~name:"apps test" ~seed
    ~workload:
      (Scenario.Jobs
         {
           pattern = Scenario.Partition_aggregate;
           count;
           width;
           depth = 1;
           sizes = Scenario.Fixed 50_000;
           deadlines;
           rate = None;
         })
    protocol

let terminal_times events ~flows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Trace.Flow_completed { flow; _ }
        when List.mem flow flows && not (Hashtbl.mem tbl flow) ->
          Hashtbl.replace tbl flow t
      | _ -> ())
    events;
  List.map (fun f -> Hashtbl.find tbl f) flows

let admitted_times events ~flows =
  List.filter_map
    (fun (t, ev) ->
      match ev with
      | Trace.Flow_admitted { flow; _ } when List.mem flow flows -> Some t
      | _ -> None)
    events

let test_two_stage_injection_order () =
  let mem = Trace.memory () in
  let telemetry = { Runner.no_telemetry with Runner.sinks = [ mem ] } in
  let result, report =
    Scenario.run_jobs ~telemetry
      (jobs_scenario ~width:4 (Runner.Pdq Pdq_core.Config.full))
  in
  Alcotest.(check int) "4 requests + 4 responses" 8
    (Array.length result.Runner.flows);
  Alcotest.(check int) "all completed" 8 result.Runner.completed;
  let events = Trace.memory_events mem in
  let stage1 = [ 0; 1; 2; 3 ] and stage2 = [ 4; 5; 6; 7 ] in
  let s1_done = terminal_times events ~flows:stage1 in
  let s2_admitted = admitted_times events ~flows:stage2 in
  Alcotest.(check int) "all stage-2 flows admitted" 4 (List.length s2_admitted);
  let max_s1 = List.fold_left max neg_infinity s1_done in
  let min_s2 = List.fold_left min infinity s2_admitted in
  Alcotest.(check bool)
    (Printf.sprintf
       "stage-2 injected only after stage-1 finished (%.6g >= %.6g)" min_s2
       max_s1)
    true (min_s2 >= max_s1);
  (* Injection is synchronous in the sink: the admission instant IS
     the last stage-1 completion instant. *)
  Alcotest.(check bool) "injected at the completion instant" true
    (List.for_all (fun t -> t = max_s1) s2_admitted);
  (* JCT = last flow completion - job arrival, bit-exactly. *)
  let all_done = terminal_times events ~flows:(stage1 @ stage2) in
  let t_last = List.fold_left max neg_infinity all_done in
  let j = report.Job_metrics.jobs.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "bit-exact JCT (%.17g vs %.17g)"
       (Option.value ~default:nan j.Job_metrics.jct)
       (t_last -. j.Job_metrics.arrival))
    true
    (j.Job_metrics.jct = Some (t_last -. j.Job_metrics.arrival));
  Alcotest.(check int) "one completed job" 1 report.Job_metrics.completed

(* The tracker only observes; the measured result must be bit-for-bit
   the plain run's result, and protocols without PDQ scheduling (TCP)
   must drive the same job machinery. *)
let test_jobs_run_matches_plain_run () =
  List.iter
    (fun protocol ->
      let scenario = jobs_scenario ~count:2 ~width:3 protocol in
      let r_plain = Scenario.run scenario in
      let r_jobs, report = Scenario.run_jobs scenario in
      Alcotest.(check bool) "same flows" true
        (r_plain.Runner.flows = r_jobs.Runner.flows);
      Alcotest.(check (float 0.)) "same mean FCT" r_plain.Runner.mean_fct
        r_jobs.Runner.mean_fct;
      Alcotest.(check int) "both jobs completed" 2 report.Job_metrics.completed)
    [ Runner.Pdq Pdq_core.Config.full; Runner.Tcp ]

let test_checked_jobs_report () =
  let c =
    Scenario.run_checked
      (jobs_scenario ~width:3
         ~deadlines:(Scenario.Exp_deadlines { mean = 0.05; floor = 3e-3 })
         (Runner.Pdq Pdq_core.Config.full))
  in
  (match c.Scenario.job_report with
  | None -> Alcotest.fail "checked jobs run carries no job report"
  | Some report ->
      Alcotest.(check int) "job completed under --check" 1
        report.Job_metrics.completed);
  let c = Scenario.run_checked (jobs_scenario ~width:3 Runner.Tcp) in
  Alcotest.(check bool) "tcp checked run has a report too" true
    (c.Scenario.job_report <> None)

let test_non_jobs_has_no_report () =
  let scenario =
    Scenario.make ~name:"plain"
      ~workload:
        (Scenario.Synthetic
           {
             pattern = Scenario.Aggregation;
             flows = 3;
             sizes = Scenario.Fixed 50_000;
             deadlines = Scenario.No_deadlines;
           })
      Runner.Tcp
  in
  let c = Scenario.run_checked scenario in
  Alcotest.(check bool) "no job report on a flow workload" true
    (c.Scenario.job_report = None);
  let _, report = Scenario.run_jobs scenario in
  Alcotest.(check int) "empty report" 0 (Array.length report.Job_metrics.jobs)

(* Sweep determinism: the job machinery must be independent of the
   worker-domain count. *)
let test_sweep_determinism () =
  let scenario =
    jobs_scenario ~count:2 ~width:3
      ~deadlines:(Scenario.Exp_deadlines { mean = 0.02; floor = 3e-3 })
      (Runner.Pdq Pdq_core.Config.full)
  in
  let scenarios = List.map (Scenario.with_seed scenario) [ 1; 2; 3 ] in
  let run s = Scenario.run_jobs s in
  let r1 = Sweep.map ~jobs:1 run scenarios in
  let r2 = Sweep.map ~jobs:2 run scenarios in
  List.iter2
    (fun (ra, rep_a) (rb, rep_b) ->
      Alcotest.(check bool) "same flow results" true
        (ra.Runner.flows = rb.Runner.flows);
      Alcotest.(check bool) "same job outcomes" true
        (rep_a.Job_metrics.jobs = rep_b.Job_metrics.jobs))
    r1 r2

(* ------------------------------------------------------------------ *)
(* Arrivals and metrics plumbing. *)

let test_poisson_n () =
  let ts =
    Pdq_workload.Arrivals.poisson_n ~rng:(Rng.create 5) ~rate:200. ~n:100
  in
  Alcotest.(check int) "exactly n arrivals" 100 (List.length ts);
  Alcotest.(check bool) "sorted, nonnegative" true
    (List.sort compare ts = ts && List.for_all (fun t -> t >= 0.) ts);
  let last = List.nth ts 99 in
  (* 100 arrivals at 200/s: expect ~0.5 s, loose statistical bounds. *)
  Alcotest.(check bool)
    (Printf.sprintf "plausible span (got %.3f)" last)
    true
    (last > 0.2 && last < 1.2);
  Alcotest.(check int) "n = 0" 0
    (List.length (Pdq_workload.Arrivals.poisson_n ~rng:(Rng.create 5) ~rate:1. ~n:0))

let test_job_arrivals () =
  let hosts = tree_hosts () in
  let job ~index =
    Job.partition_aggregate
      ~name:(Printf.sprintf "j%d" index)
      ~workers:2 ~response_sizes:(fixed 1000) ()
  in
  let plans =
    Job_arrivals.plans ~rng:(Rng.create 1) ~hosts ~count:3 ~job ()
  in
  Alcotest.(check int) "3 plans" 3 (List.length plans);
  List.iter
    (fun (p : Job_plan.t) ->
      Alcotest.(check (float 0.)) "simultaneous by default" 0. p.Job_plan.arrival)
    plans;
  let plans =
    Job_arrivals.plans ~rng:(Rng.create 1) ~hosts ~rate:100. ~count:3 ~job ()
  in
  let arrivals = List.map (fun (p : Job_plan.t) -> p.Job_plan.arrival) plans in
  Alcotest.(check bool) "poisson arrivals increase" true
    (List.sort compare arrivals = arrivals)

let test_metrics_json () =
  let _, report =
    Scenario.run_jobs
      (jobs_scenario ~width:2
         ~deadlines:(Scenario.Exp_deadlines { mean = 0.05; floor = 3e-3 })
         (Runner.Pdq Pdq_core.Config.full))
  in
  let json = Job_metrics.to_json report in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json mentions the job" true
    (contains json {|"name"|} && contains json "job");
  Alcotest.(check bool) "summary is one line" true
    (not (String.contains (Job_metrics.summary report) '\n'));
  (* Names with a tab, a quote and a backslash must still give valid
     JSON that reads back to the same names. *)
  let name = "job\t\"1\"\\a" and label = "stage\t\\\"x\"" in
  let stage =
    { Job_metrics.label; flows = 2; injected_at = Some 0.; finished_at = None;
      clean = false; cct = None }
  in
  let job =
    { Job_metrics.name; arrival = 0.; deadline = None; finished_at = None;
      jct = None; met_deadline = false; failed = true; straggler = None;
      stages = [| stage |] }
  in
  let module Json = Pdq_telemetry.Json in
  let doc = Json.parse (Job_metrics.to_json (Job_metrics.of_outcomes [| job |])) in
  match Json.arr (Json.field (Json.obj doc) "jobs") with
  | [ j ] -> (
      let j = Json.obj j in
      Alcotest.(check string) "job name reads back" name (Json.str j "name");
      match Json.arr (Json.field j "stages") with
      | [ s ] ->
          Alcotest.(check string) "stage label reads back" label
            (Json.str (Json.obj s) "label")
      | _ -> Alcotest.fail "expected one stage")
  | _ -> Alcotest.fail "expected one job"

let suites =
  [
    ( "apps.job",
      [
        Alcotest.test_case "validation" `Quick test_job_validation;
        Alcotest.test_case "canonical shapes" `Quick test_canonical_shapes;
        Alcotest.test_case "deadline split" `Quick test_stage_deadlines_split;
        Alcotest.test_case "deadline floor clip" `Quick test_stage_deadlines_floor;
        Alcotest.test_case "no deadline" `Quick test_stage_deadlines_none;
      ] );
    ( "apps.plan",
      [
        Alcotest.test_case "compile sanity" `Quick test_compile_sanity;
        Alcotest.test_case "compile determinism" `Quick test_compile_determinism;
        Alcotest.test_case "too few hosts" `Quick test_compile_too_few_hosts;
      ] );
    ( "apps.tracker",
      [
        Alcotest.test_case "injects on stage completion" `Quick
          test_tracker_injects_on_stage_completion;
        Alcotest.test_case "unclean stage fails the job" `Quick
          test_tracker_unclean_stage_fails_job;
      ] );
    ( "apps.run",
      [
        Alcotest.test_case "two-stage injection order" `Quick
          test_two_stage_injection_order;
        Alcotest.test_case "jobs run matches plain run" `Quick
          test_jobs_run_matches_plain_run;
        Alcotest.test_case "checked run carries the report" `Quick
          test_checked_jobs_report;
        Alcotest.test_case "non-jobs workloads" `Quick test_non_jobs_has_no_report;
        Alcotest.test_case "sweep determinism" `Quick test_sweep_determinism;
      ] );
    ( "apps.arrivals",
      [
        Alcotest.test_case "poisson_n" `Quick test_poisson_n;
        Alcotest.test_case "job arrivals" `Quick test_job_arrivals;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
      ] );
  ]
