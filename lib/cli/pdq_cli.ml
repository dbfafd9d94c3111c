(* pdq_sim: command-line front end for single packet-level experiments.

   The flags parse directly into a {!Pdq_exec.Scenario.t}; everything
   except the telemetry/validation/profiler/jobs/supervision flags is
   scenario data.

   Examples:
     pdq_sim --proto pdq --flows 10 --deadline-mean 20
     pdq_sim --proto tcp --topo bottleneck --flows 8 --no-deadlines
     pdq_sim --workload jobs --job-pattern partition-aggregate --fan-in 8
     pdq_sim --workload jobs --job-count 4 --seeds 1,2,3 --job-metrics-out j.json
     pdq_sim --proto mpdq --subflows 4 --topo bcube --mean-size 400
     pdq_sim --proto pdq --topo fat-tree --flows 16 --flap-mtbf 0.3
     pdq_sim --proto pdq --seeds 1,2,3,4 --jobs 4
     pdq_sim --proto pdq --check --check-out violations.jsonl
     pdq_sim --seeds 1,2,3,4 --timeout 30 --retries 2 --keep-going \
             --checkpoint sweep.ckpt
     pdq_sim --seeds 1,2,3,4 --resume sweep.ckpt --report-out report.json
     pdq_sim --resilience --jobs 4
     pdq_sim --proto pdq --trace-out t.jsonl --forensics-out report.txt
     pdq_sim forensics t.jsonl
     pdq_sim forensics --diff a.jsonl b.jsonl *)

open Cmdliner
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Exec_opts = Pdq_exec.Exec_opts
module Task = Pdq_exec.Task
module Trace = Pdq_telemetry.Trace
module Report = Pdq_check.Report
module Attribution = Pdq_forensics.Attribution
module Trace_diff = Pdq_forensics.Trace_diff
module Job_metrics = Pdq_apps.Job_metrics

module Exit_code = Exit_code

(* Integer views of the discipline, for the arithmetic-free call
   sites below; {!Exit_code} is the source of truth. *)
let exit_fault_aborted = Exit_code.(to_int Fault_aborted)
let exit_invariant_violation = Exit_code.(to_int Invariant_violation)
let exit_timed_out = Exit_code.(to_int Timed_out)
let exit_run_failed = Exit_code.(to_int Run_failed)

(* Flags that are about this invocation, not about the experiment:
   telemetry sinks, the validation monitors, the profiler, the
   worker-domain count and the supervision (budget / retry /
   checkpoint) knobs. *)
type cli_opts = {
  trace_out : string option;
  metrics_out : string option;
  forensics_out : string option;
  job_metrics_out : string option;
  metrics_every : float;
  profile : bool;
  jobs : int option;
  seeds : int list;
  check : bool;
  check_out : string option;
  timeout : float option;
  max_events : int option;
  retries : int;
  keep_going : bool;
  checkpoint : string option;
  resume : string option;
  report_out : string option;
}

(* The per-attempt budget implied by --timeout/--max-events, or [None]
   when neither is set. *)
let budget_of ~timeout ~max_events =
  match (timeout, max_events) with
  | None, None -> None
  | wall, events -> Some (Exec_opts.budget ?wall ?events ())

let budget_opt opts =
  budget_of ~timeout:opts.timeout ~max_events:opts.max_events

let print_result ~(scenario : Scenario.t) (r : Runner.result) =
  Printf.printf "%s: %d flows (seed %d)\n" scenario.Scenario.name
    (Array.length r.Runner.flows)
    scenario.Scenario.seed;
  Array.iteri
    (fun i (f : Runner.flow_result) ->
      Printf.printf
        "  flow %2d  %3d->%3d  %7dB  %s%s%s\n" i f.Runner.spec.Context.src
        f.Runner.spec.Context.dst f.Runner.spec.Context.size
        (match f.Runner.fct with
        | Some x -> Printf.sprintf "fct %7.2f ms" (1e3 *. x)
        | None -> "incomplete   ")
        (match f.Runner.spec.Context.deadline with
        | Some d ->
            Printf.sprintf "  deadline %5.1f ms %s" (1e3 *. d)
              (if f.Runner.met_deadline then "MET" else "MISSED")
        | None -> "")
        (if f.Runner.terminated then "  [early terminated]"
         else if f.Runner.aborted then "  [aborted]"
         else ""))
    r.Runner.flows;
  Printf.printf "mean FCT %.3f ms | application throughput %.1f%% | %d/%d \
                 completed | %d aborted\n"
    (1e3 *. r.Runner.mean_fct)
    (100. *. r.Runner.application_throughput)
    r.Runner.completed (Array.length r.Runner.flows) r.Runner.aborted;
  if r.Runner.counters <> [] then begin
    Printf.printf "counters:";
    List.iter (fun (k, v) -> Printf.printf " %s=%d" k v) r.Runner.counters;
    print_newline ()
  end

let print_check_summary (c : Scenario.checked) =
  Format.printf "%a" Report.pp_list c.Scenario.violations;
  let o = c.Scenario.oracle in
  Format.printf
    "oracle: sim mean FCT %.3f ms | SJF oracle %.3f ms | emulation gap %.2fx \
     | EDF deadline throughput %.1f%%@."
    (1e3 *. o.Pdq_check.Oracle.sim_mean_fct)
    (1e3 *. o.Pdq_check.Oracle.sjf_mean_fct)
    o.Pdq_check.Oracle.gap
    (100. *. o.Pdq_check.Oracle.edf_deadline_frac)

let write_check_out path violations =
  let oc = open_out path in
  Report.write_jsonl oc violations;
  close_out oc;
  Printf.printf "violation report written to %s (%d entries)\n" path
    (List.length violations)

(* Exit-status discipline: invariant violations dominate run failures,
   which dominate timeouts, which dominate fault aborts, which
   dominate success. Deadline misses are experiment results, not
   process failures. *)
let code_of ~violations (r : Runner.result) =
  if violations <> [] then exit_invariant_violation
  else if r.Runner.aborted > 0 then exit_fault_aborted
  else 0

(* Per-seed sink files for sweeps: trace.jsonl -> trace.seed7.jsonl. *)
let seed_path path ~seed =
  Printf.sprintf "%s.seed%d%s"
    (Filename.remove_extension path)
    seed
    (Filename.extension path)

let seed_pattern path =
  Printf.sprintf "%s.seed<N>%s"
    (Filename.remove_extension path)
    (Filename.extension path)

let write_metrics path m =
  let oc = open_out path in
  if Filename.check_suffix path ".jsonl" then
    Pdq_telemetry.Metrics.write_jsonl m oc
  else Pdq_telemetry.Metrics.write_csv m oc;
  close_out oc

(* The forensics output format follows the file extension; anything
   that is not .json or .csv gets the human-readable table. *)
let render_forensics ~path report =
  if Filename.check_suffix path ".json" then Attribution.to_json report ^ "\n"
  else if Filename.check_suffix path ".csv" then Attribution.to_csv report
  else Attribution.to_text report

let write_forensics path report =
  let oc = open_out path in
  output_string oc (render_forensics ~path report);
  close_out oc

(* One deterministic line per slot, threaded into the sweep report as a
   note. *)
let forensics_summary (r : Attribution.report) =
  let t = r.Attribution.totals in
  Printf.sprintf
    "forensics: %d flows, fct %.3f ms (paused %.3f, recovery %.3f, downtime \
     %.3f)"
    (List.length r.Attribution.flows)
    (1e3 *. r.Attribution.total_fct)
    (1e3 *. t.Attribution.paused)
    (1e3 *. t.Attribution.recovery)
    (1e3 *. t.Attribution.downtime)

let is_jobs (scenario : Scenario.t) =
  match scenario.Scenario.workload with
  | Scenario.Jobs _ -> true
  | _ -> false

let write_job_metrics path report =
  let oc = open_out path in
  output_string oc (Job_metrics.to_json report);
  output_char oc '\n';
  close_out oc

(* One run: under the validation monitors when [checking], and with
   the job report of a jobs workload. *)
let execute ?budget ~checking ~telemetry scenario =
  if checking then
    let c = Scenario.run_checked ?budget ~telemetry scenario in
    (c.Scenario.result, Some c, c.Scenario.job_report)
  else if is_jobs scenario then
    let r, report = Scenario.run_jobs ?budget ~telemetry scenario in
    (r, None, Some report)
  else (Scenario.run ?budget ~telemetry scenario, None, None)

(* Call [run ~telemetry] with the per-run sinks the flags ask for, each
   writing to [path] of its flag's file. The trace channel is opened
   and closed here, so in a sweep it never leaves the worker. Returns
   [run]'s value and the forensics report, if one was asked for. *)
let with_sinks opts ~path run =
  let trace_chan = Option.map (fun p -> open_out (path p)) opts.trace_out in
  let metrics =
    Option.map (fun p -> (p, Pdq_telemetry.Metrics.create ())) opts.metrics_out
  in
  let forensics =
    Option.map (fun p -> (p, Trace.memory ())) opts.forensics_out
  in
  let telemetry =
    {
      Runner.no_telemetry with
      Runner.sinks =
        Option.to_list (Option.map Trace.jsonl trace_chan)
        @ Option.to_list (Option.map snd forensics);
      metrics = Option.map snd metrics;
      metrics_every = opts.metrics_every;
    }
  in
  let v =
    Fun.protect
      ~finally:(fun () -> Option.iter close_out trace_chan)
      (fun () -> run ~telemetry)
  in
  Option.iter (fun (p, m) -> write_metrics (path p) m) metrics;
  ( v,
    Option.map
      (fun (p, mem) ->
        let report = Attribution.of_events (Trace.memory_events mem) in
        write_forensics (path p) report;
        report)
      forensics )

let violations_of = function
  | Some c -> c.Scenario.violations
  | None -> []

(* One run with the full telemetry plumbing attached. --timeout and
   --max-events bound it with the same budget a sweep attempt runs
   under. *)
let run_single scenario opts =
  let checking = opts.check || opts.check_out <> None in
  match
    with_sinks opts ~path:Fun.id (fun ~telemetry ->
        execute ?budget:(budget_opt opts) ~checking ~telemetry scenario)
  with
  | exception Pdq_engine.Sim.Cancelled { reason; events } ->
      Printf.printf "%s: TIMED OUT (%s) after %d events\n"
        scenario.Scenario.name reason events;
      exit_timed_out
  | (r, checked, job_report), _ ->
      let violations = violations_of checked in
      print_result ~scenario r;
      Option.iter print_check_summary checked;
      Option.iter (fun path -> write_check_out path violations) opts.check_out;
      Option.iter
        (fun report ->
          Format.printf "%a" Job_metrics.pp report;
          Option.iter
            (fun path ->
              write_job_metrics path report;
              Printf.printf "job metrics written to %s\n" path)
            opts.job_metrics_out)
        job_report;
      Option.iter (Printf.printf "trace written to %s\n") opts.trace_out;
      Option.iter (Printf.printf "metrics written to %s\n") opts.metrics_out;
      Option.iter (Printf.printf "forensics report written to %s\n")
        opts.forensics_out;
      code_of ~violations r

(* Per-seed line; stdout must be identical for any --jobs value and
   for a resumed vs. uninterrupted sweep. *)
let print_seed_line seed (r : Runner.result) =
  Printf.printf
    "  seed %3d  mean FCT %8.3f ms  app tput %5.1f%%  %d/%d completed  %d \
     aborted\n"
    seed
    (1e3 *. r.Runner.mean_fct)
    (100. *. r.Runner.application_throughput)
    r.Runner.completed (Array.length r.Runner.flows) r.Runner.aborted

(* "over seeds" when all [total] seeds count, else how many did. *)
let over_seeds n ~total =
  if n = total then "over seeds" else Printf.sprintf "over %d ok seeds" n

let print_mean ~total results =
  let n = float_of_int (List.length results) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
  Printf.printf "mean %s: FCT %.3f ms | application throughput %.1f%%\n"
    (over_seeds (List.length results) ~total)
    (1e3 *. mean (fun r -> r.Runner.mean_fct))
    (100. *. mean (fun r -> r.Runner.application_throughput))

let print_job_reports ~total reports =
  List.iter
    (fun (seed, report) ->
      Printf.printf "  seed %3d  %s\n" seed (Job_metrics.summary report))
    reports;
  let reports = List.map snd reports in
  let n = List.length reports in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  Printf.printf "jobs mean %s: JCT %.3f ms | deadline misses %d/%d\n"
    (over_seeds n ~total)
    (1e3
    *. (List.fold_left
          (fun acc (r : Job_metrics.report) -> acc +. r.Job_metrics.mean_jct)
          0. reports
       /. float_of_int n))
    (sum (fun (r : Job_metrics.report) ->
         r.Job_metrics.deadline_jobs - r.Job_metrics.deadline_met))
    (sum (fun (r : Job_metrics.report) -> r.Job_metrics.deadline_jobs))

(* A --seeds sweep on the supervised executor. Every seed settles as a
   Task: a crashed or timed-out seed prints a deterministic cause line,
   the mean is taken over the Ok seeds, and the sweep report lists the
   casualties; without --keep-going the first casualty stops the sweep.
   Sinks are per-run state, so each run writes its own per-seed files
   (--trace-out t.jsonl with seed 7 lands in t.seed7.jsonl), while
   t.jsonl itself records the sweep lifecycle on a wall-clock bus. Ok
   results stream to --checkpoint; --resume re-executes only the
   missing seeds, which are loaded, not run, so they leave no per-seed
   files, job report or forensics note. *)
let run_sweep scenario opts =
  let seeds = Array.of_list opts.seeds in
  let n = Array.length seeds in
  let scenarios = Array.map (Scenario.with_seed scenario) seeds in
  let checking = opts.check || opts.check_out <> None in
  (* Per-slot side results, set by the worker running the slot once its
     run has returned — so only for executed Ok slots. *)
  let violations = Array.make n [] in
  let job_reports = Array.make n None in
  let notes = Array.make n None in
  let run_slot i =
    let seed = seeds.(i) in
    let (r, checked, job_report), forensics =
      with_sinks opts
        ~path:(fun p -> seed_path p ~seed)
        (fun ~telemetry -> execute ~checking ~telemetry scenarios.(i))
    in
    (match (job_report, opts.job_metrics_out) with
    | Some report, Some path -> write_job_metrics (seed_path path ~seed) report
    | _ -> ());
    violations.(i) <- violations_of checked;
    job_reports.(i) <- Option.map (fun report -> (seed, report)) job_report;
    notes.(i) <- Option.map (fun rep -> (i, forensics_summary rep)) forensics;
    r
  in
  (* --resume keeps appending new completions to the same file unless
     a distinct --checkpoint is given. *)
  let checkpoint =
    match (opts.checkpoint, opts.resume) with
    | None, Some p -> Some p
    | c, _ -> c
  in
  let trace_chan = Option.map open_out opts.trace_out in
  let on_event =
    Option.map
      (fun oc ->
        Sweep.emit_trace
          (Trace.create ~clock:Unix.gettimeofday ~sinks:[ Trace.jsonl oc ]))
      trace_chan
  in
  let sup =
    Sweep.supervise ?jobs:opts.jobs ?budget:(budget_opt opts)
      ~attempts:(opts.retries + 1) ~keep_going:opts.keep_going ?checkpoint
      ?resume:opts.resume ~codec:Scenario.result_codec ?on_event
      ~key:(fun i -> Scenario.digest scenarios.(i))
      run_slot (List.init n Fun.id)
  in
  Option.iter close_out trace_chan;
  let collect side = List.concat_map Option.to_list (Array.to_list side) in
  let violations = List.concat (Array.to_list violations) in
  let job_reports = collect job_reports in
  let report = Sweep.with_notes sup.Sweep.report ~notes:(collect notes) in
  Printf.printf "%s: %d seeds\n" scenario.Scenario.name n;
  List.iteri
    (fun i task ->
      match task with
      | Task.Ok r -> print_seed_line seeds.(i) r
      | t ->
          Printf.printf "  seed %3d  %s\n" seeds.(i)
            (Format.asprintf "%a" Task.pp t))
    sup.Sweep.tasks;
  let oks = List.filter_map Task.ok sup.Sweep.tasks in
  if oks = [] then Printf.printf "no seeds completed\n"
  else print_mean ~total:n oks;
  if job_reports <> [] then print_job_reports ~total:n job_reports;
  if report.Sweep.slots <> [] || report.Sweep.notes <> [] then
    Format.printf "%a" Sweep.pp_report report;
  if checking then Format.printf "%a" Report.pp_list violations;
  Option.iter (fun path -> write_check_out path violations) opts.check_out;
  (* File notices, resume bookkeeping and wall-clock material go to
     stderr so stdout stays diffable across --jobs values and against
     an uninterrupted run. *)
  let per_seed what =
    Option.iter (fun path ->
        Printf.eprintf "per-seed %s written to %s\n%!" what (seed_pattern path))
  in
  per_seed "traces" opts.trace_out;
  per_seed "metrics" opts.metrics_out;
  per_seed "forensics reports" opts.forensics_out;
  if is_jobs scenario then per_seed "job metrics" opts.job_metrics_out;
  Option.iter (Printf.eprintf "sweep trace written to %s\n%!") opts.trace_out;
  if report.Sweep.resumed > 0 then
    Printf.eprintf "resumed %d of %d seeds from checkpoint\n%!"
      report.Sweep.resumed report.Sweep.total;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Sweep.report_to_json report);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "sweep report written to %s\n%!" path)
    opts.report_out;
  let aborted =
    List.exists (fun (r : Runner.result) -> r.Runner.aborted > 0) oks
  in
  if violations <> [] then exit_invariant_violation
  else if report.Sweep.failed > 0 || report.Sweep.skipped > 0 then
    exit_run_failed
  else if report.Sweep.timed_out > 0 then exit_timed_out
  else if aborted then exit_fault_aborted
  else 0

let workload_names = [ "flows"; "jobs" ]

let print_workloads () =
  print_string
    (String.concat "\n"
       [
         "workloads (--workload):";
         "  flows  simultaneous flows from --pattern/--flows/--mean-size \
          (the paper's synthetic workload)";
         "  jobs   application-level job DAGs (--job-pattern, --job-count, \
          --fan-in, --stage-depth) with per-job deadlines and JCT metrics";
         "job patterns (--job-pattern): "
         ^ String.concat ", " Scenario.job_pattern_names;
         "flow patterns (--pattern): "
         ^ String.concat ", " Scenario.pattern_names;
         "";
       ])

let run scenario opts resilience full list_workloads =
  if list_workloads then begin
    print_workloads ();
    0
  end
  else begin
  (* Enable before any simulator exists so every run attaches to the
     global profiler; worker-domain shards merge in the report. *)
  let profiler =
    if opts.profile then Some (Pdq_engine.Profiler.enable_global ()) else None
  in
  let code =
    if resilience then begin
      match
        Pdq_experiments.Resilience.tables ?jobs:opts.jobs
          ?budget:(budget_opt opts) ~quick:(not full) ()
      with
      | tables ->
          List.iter
            (Pdq_experiments.Common.pp_table Format.std_formatter)
            tables;
          0
      | exception Sweep.Sweep_errors errs ->
          Printf.eprintf "resilience sweep failed:\n%s\n%!"
            (Printexc.to_string (Sweep.Sweep_errors errs));
          if
            List.for_all
              (fun (_, e) ->
                match e with Pdq_engine.Sim.Cancelled _ -> true | _ -> false)
              errs
          then exit_timed_out
          else exit_run_failed
    end
    else begin
      match opts.seeds with
      | [] | [ _ ] ->
          let scenario =
            match opts.seeds with
            | [ seed ] -> Scenario.with_seed scenario seed
            | _ -> scenario
          in
          run_single scenario opts
      | _ -> run_sweep scenario opts
    end
  in
  (match profiler with
  | Some p -> Format.printf "%a@." Pdq_engine.Profiler.pp_report p
  | None -> ());
  code
  end

(* Parsers return [Result] so bad names surface as cmdliner usage
   errors instead of exceptions. *)
let msg r = Result.map_error (fun e -> `Msg e) r

let scenario_term =
  let make proto_name subflows topo_name workload_name flows mean_size_kb
      deadline_mean_ms no_deadlines pattern_name job_pattern_name job_count
      fan_in stage_depth job_rate seed flap_mtbf flap_mttr reboot_mtbf
      fault_until =
    let ( let* ) = Result.bind in
    let* protocol = msg (Scenario.protocol_of_string ~subflows proto_name) in
    let* topo = msg (Scenario.topo_of_string topo_name) in
    let sizes = Scenario.Uniform_paper { mean_bytes = mean_size_kb * 1000 } in
    let deadlines =
      if no_deadlines then Scenario.No_deadlines
      else
        Scenario.Exp_deadlines { mean = deadline_mean_ms /. 1e3; floor = 3e-3 }
    in
    let* workload =
      match String.lowercase_ascii workload_name with
      | "flows" | "synthetic" ->
          let* pattern = msg (Scenario.pattern_of_string pattern_name) in
          Ok (Scenario.Synthetic { pattern; flows; sizes; deadlines })
      | "jobs" ->
          let* pattern = msg (Scenario.job_pattern_of_string job_pattern_name) in
          Ok
            (Scenario.Jobs
               {
                 pattern;
                 count = job_count;
                 width = fan_in;
                 depth = stage_depth;
                 sizes;
                 deadlines;
                 rate = job_rate;
               })
      | other ->
          Error
            (`Msg
               (Printf.sprintf "unknown workload %S (expected one of: %s)"
                  other
                  (String.concat ", " workload_names)))
    in
    let faults =
      match (flap_mtbf, reboot_mtbf) with
      | None, None -> Scenario.No_faults
      | _ ->
          Scenario.Flaps_and_reboots
            { flap_mtbf; flap_mttr; reboot_mtbf; until = fault_until }
    in
    Ok (Scenario.make ~topo ~seed ~faults ~workload protocol)
  in
  let proto =
    Arg.(value & opt string "pdq"
         & info [ "proto" ]
             ~doc:"pdq, pdq-basic, pdq-es, pdq-es-et, mpdq, rcp, d3, tcp \
                   (pdq-broken: a deliberately broken rate allocator for \
                   exercising --check)")
  in
  let subflows =
    Arg.(value & opt int 3 & info [ "subflows" ] ~doc:"M-PDQ subflows")
  in
  let topo =
    Arg.(value & opt string "tree"
         & info [ "topo" ] ~doc:"tree, bottleneck, fat-tree, bcube, jellyfish")
  in
  let workload =
    Arg.(value & opt string "flows"
         & info [ "workload" ]
             ~doc:"flows (the paper's synthetic workload) or jobs \
                   (application-level job DAGs with JCT metrics); see \
                   --list-workloads")
  in
  let flows = Arg.(value & opt int 10 & info [ "flows" ] ~doc:"number of flows") in
  let mean_size =
    Arg.(value & opt int 100 & info [ "mean-size" ] ~doc:"mean flow size [KB]")
  in
  let deadline_mean =
    Arg.(value & opt float 20. & info [ "deadline-mean" ] ~doc:"mean deadline [ms]")
  in
  let no_deadlines =
    Arg.(value & flag & info [ "no-deadlines" ] ~doc:"deadline-unconstrained flows")
  in
  let pattern =
    Arg.(value & opt string "aggregation"
         & info [ "pattern" ]
             ~doc:"aggregation, stride, staggered, permutation, pairs")
  in
  let job_pattern =
    Arg.(value & opt string "partition-aggregate"
         & info [ "job-pattern" ]
             ~doc:"With --workload jobs: partition-aggregate, map-reduce, \
                   pipeline")
  in
  let job_count =
    Arg.(value & opt int 1
         & info [ "job-count" ] ~doc:"With --workload jobs: number of jobs")
  in
  let fan_in =
    Arg.(value & opt int 4
         & info [ "fan-in" ]
             ~doc:"With --workload jobs: workers (or mappers) per stage")
  in
  let stage_depth =
    Arg.(value & opt int 1
         & info [ "stage-depth" ]
             ~doc:"With --workload jobs: rounds per job (pipeline: hops)")
  in
  let job_rate =
    Arg.(value & opt (some float) None
         & info [ "job-rate" ]
             ~doc:"With --workload jobs: Poisson job-arrival rate [jobs/s] \
                   (default: all jobs arrive at t=0)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed") in
  let flap_mtbf =
    Arg.(value & opt (some float) None
         & info [ "flap-mtbf" ]
             ~doc:"Flap switch-switch cables: mean time between failures [s]")
  in
  let flap_mttr =
    Arg.(value & opt float 0.03
         & info [ "flap-mttr" ] ~doc:"Mean time to repair a flapped cable [s]")
  in
  let reboot_mtbf =
    Arg.(value & opt (some float) None
         & info [ "reboot-mtbf" ]
             ~doc:"Crash-reboot switches: mean time between reboots [s]")
  in
  let fault_until =
    Arg.(value & opt float 0.5
         & info [ "fault-until" ] ~doc:"Stop injecting faults after this time [s]")
  in
  Term.term_result
    Term.(
      const make $ proto $ subflows $ topo $ workload $ flows $ mean_size
      $ deadline_mean $ no_deadlines $ pattern $ job_pattern $ job_count
      $ fan_in $ stage_depth $ job_rate $ seed $ flap_mtbf $ flap_mttr
      $ reboot_mtbf $ fault_until)

let opts_term =
  let make trace_out metrics_out forensics_out job_metrics_out metrics_every
      profile jobs seeds check check_out timeout max_events retries keep_going
      checkpoint resume report_out =
    let checking = check || check_out <> None in
    if checking && (checkpoint <> None || resume <> None) then
      Error
        (`Msg
           "--checkpoint/--resume cannot be combined with --check: checked \
            results carry live monitor state and are not checkpointable \
            (budgets, --retries and --keep-going do work with --check)")
    else if retries < 0 then Error (`Msg "--retries must be >= 0")
    else
      Ok
        {
          trace_out;
          metrics_out;
          forensics_out;
          job_metrics_out;
          metrics_every;
          profile;
          jobs;
          seeds;
          check;
          check_out;
          timeout;
          max_events;
          retries;
          keep_going;
          checkpoint;
          resume;
          report_out;
        }
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ]
             ~doc:"Write the structured event trace as JSONL to $(docv). With \
                   --seeds: one simulation trace per seed \
                   (trace.seedN.jsonl), and the sweep lifecycle events \
                   (slot settled, retry, worker crash) on a wall-clock bus \
                   in $(docv) itself"
             ~docv:"FILE")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ]
             ~doc:"Write the metrics registry (probe series, counters, \
                   histograms) to $(docv); .jsonl extension selects JSONL, \
                   anything else CSV"
             ~docv:"FILE")
  in
  let forensics_out =
    Arg.(value & opt (some string) None
         & info [ "forensics-out" ]
             ~doc:"Reconstruct per-flow lifecycle spans from the run's event \
                   stream and write the FCT attribution report to $(docv) \
                   (.json/.csv select the format, anything else the text \
                   table). With --seeds: one file per seed plus a per-slot \
                   summary in the sweep report"
             ~docv:"FILE")
  in
  let job_metrics_out =
    Arg.(value & opt (some string) None
         & info [ "job-metrics-out" ]
             ~doc:"With --workload jobs: write the job-level report (per-job \
                   JCT, stage coflow completion times, deadline misses, \
                   stragglers) as JSON to $(docv). With --seeds: one file per \
                   seed (file.seedN.json)"
             ~docv:"FILE")
  in
  let metrics_every =
    Arg.(value & opt float 1e-3
         & info [ "metrics-every" ]
             ~doc:"Metrics and validation probe period in simulated seconds"
             ~docv:"SEC")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print the simulator profiler report (events executed, \
                   queue high-water mark, CPU per simulated second, per \
                   event kind timing)")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ]
             ~doc:"Worker domains for --seeds sweeps and --resilience \
                   (default: the recommended domain count, or the PDQ_JOBS \
                   environment variable); \
                   results are identical for any value" ~docv:"N")
  in
  let seeds =
    Arg.(value & opt (list int) []
         & info [ "seeds" ]
             ~doc:"Run the scenario under each comma-separated seed (in \
                   parallel with --jobs) and report per-seed and mean \
                   figures" ~docv:"S1,S2,...")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Attach the validation monitors (link capacity, byte \
                   conservation, switch flow-state bounds, deadline \
                   accounting) and the EDF/SJF oracle bounds; exit 4 on any \
                   violation")
  in
  let check_out =
    Arg.(value & opt (some string) None
         & info [ "check-out" ]
             ~doc:"With --check (implied): write the violation report as \
                   JSONL to $(docv)"
             ~docv:"FILE")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ]
             ~doc:"Per-run (per-attempt) wall-clock budget in seconds, \
                   enforced cooperatively inside the simulator; a run that \
                   blows it is reported TIMED OUT (exit 5)"
             ~docv:"SEC")
  in
  let max_events =
    Arg.(value & opt (some int) None
         & info [ "max-events" ]
             ~doc:"Per-run (per-attempt) simulator event budget; a run that \
                   blows it is reported TIMED OUT (exit 5)"
             ~docv:"N")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ]
             ~doc:"With --seeds: retry a crashed seed up to $(docv) more \
                   times with jittered exponential backoff (timeouts are \
                   never retried)"
             ~docv:"N")
  in
  let keep_going =
    Arg.(value & flag
         & info [ "keep-going" ]
             ~doc:"With --seeds: a crashed or timed-out seed settles as a \
                   structured failure slot and the sweep continues instead \
                   of stopping at the first casualty")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ]
             ~doc:"With --seeds: stream each completed run to $(docv) as \
                   JSONL keyed by scenario content hash, flushed per line, \
                   so a killed sweep loses at most the in-flight runs"
             ~docv:"FILE")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ]
             ~doc:"With --seeds: preload completed runs from checkpoint \
                   $(docv), re-execute only the missing seeds (bit-identical \
                   to an uninterrupted sweep) and keep appending new \
                   completions to the same file"
             ~docv:"FILE")
  in
  let report_out =
    Arg.(value & opt (some string) None
         & info [ "report-out" ]
             ~doc:"With --seeds: write the sweep resilience \
                   report (ok/resumed/failed/timed-out counts, attempts, \
                   per-slot causes, wall time) as JSON to $(docv)"
             ~docv:"FILE")
  in
  Term.term_result
    Term.(
      const make $ trace_out $ metrics_out $ forensics_out $ job_metrics_out
      $ metrics_every $ profile $ jobs $ seeds $ check $ check_out $ timeout
      $ max_events $ retries $ keep_going $ checkpoint $ resume $ report_out)

(* ------------------------------------------------------------------ *)
(* pdq_sim forensics: offline span reconstruction, FCT attribution and
   trace diffing over recorded --trace-out JSONL files. *)

let exit_bad_trace = Exit_code.(to_int Bad_trace)

let load_attribution path =
  Result.map Attribution.of_events (Pdq_forensics.Replay.read_file path)

let run_forensics ~traces ~diff ~format ~out ~threshold =
  let write what s =
    match out with
    | None ->
        print_string s;
        0
    | Some path ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        Printf.printf "forensics %s written to %s\n" what path;
        0
  in
  match (diff, traces) with
  | false, [ path ] -> (
      match load_attribution path with
      | Error msg ->
          Printf.eprintf "pdq_sim forensics: %s\n%!" msg;
          exit_bad_trace
      | Ok rep ->
          write "report"
            (match format with
            | `Text -> Attribution.to_text rep
            | `Csv -> Attribution.to_csv rep
            | `Json -> Attribution.to_json rep ^ "\n"))
  | true, [ a; b ] -> (
      match (load_attribution a, load_attribution b) with
      | Error msg, _ | _, Error msg ->
          Printf.eprintf "pdq_sim forensics: %s\n%!" msg;
          exit_bad_trace
      | Ok ra, Ok rb ->
          let d = Trace_diff.diff ~threshold ra rb in
          write "diff"
            (match format with
            | `Json -> Trace_diff.to_json d ^ "\n"
            | _ -> Trace_diff.to_text d))
  | _ -> assert false (* arity checked at parse time *)

let forensics_term =
  let make traces diff format_name out threshold =
    let ( let* ) = Result.bind in
    let* format =
      match format_name with
      | "text" -> Ok `Text
      | "csv" -> Ok `Csv
      | "json" -> Ok `Json
      | other -> Error (`Msg (Printf.sprintf "unknown --format %S" other))
    in
    let* () =
      match (diff, List.length traces) with
      | false, 1 | true, 2 -> Ok ()
      | false, n ->
          Error
            (`Msg
               (Printf.sprintf
                  "expected exactly one TRACE (got %d); use --diff to compare \
                   two"
                  n))
      | true, n ->
          Error
            (`Msg (Printf.sprintf "--diff expects exactly two traces (got %d)" n))
    in
    let* () =
      if diff && format = `Csv then
        Error (`Msg "--diff supports --format text or json")
      else Ok ()
    in
    if threshold < 0. then Error (`Msg "--threshold must be >= 0")
    else Ok (run_forensics ~traces ~diff ~format ~out ~threshold)
  in
  let traces =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"TRACE"
             ~doc:"Recorded JSONL trace(s) from --trace-out")
  in
  let diff =
    Arg.(value & flag
         & info [ "diff" ]
             ~doc:"Compare two traces: align flows by id and report \
                   per-component FCT differences beyond --threshold")
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ]
             ~doc:"Output format: text, csv or json (csv only without \
                   --diff)"
             ~docv:"FMT")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~doc:"Write the report to $(docv) instead of stdout"
             ~docv:"FILE")
  in
  let threshold =
    Arg.(value & opt float 1e-3
         & info [ "threshold" ]
             ~doc:"With --diff: ignore component changes of at most $(docv) \
                   seconds"
             ~docv:"SEC")
  in
  Term.term_result
    Term.(const make $ traces $ diff $ format $ out $ threshold)

let forensics_cmd =
  Cmd.v
    (Cmd.info "forensics"
       ~doc:"Reconstruct per-flow lifecycle spans from a recorded trace, \
             attribute each flow's completion time to handshake / \
             serialization / paused / loss-recovery / fault-downtime \
             components, or diff the attribution of two runs")
    forensics_term

(* ------------------------------------------------------------------ *)
(* pdq_sim chaos: adversarial fuzzing of the invariant monitors.
   Random (scenario, fault plan, adversary plan) cases run through the
   full validation stack on the supervised executor; a violating case
   is shrunk to a minimal reproducer and written as replayable JSON.
   Stdout is built entirely from the returned campaign, so it is
   bit-identical for any --jobs value. *)

module Fuzzer = Pdq_chaos.Fuzzer

let exit_violation_found = Exit_code.(to_int Violation_found)

let verdict_line (t : Fuzzer.verdict Task.t) =
  match t with
  | Task.Ok { Fuzzer.invariant = None; _ } -> "ok"
  | Task.Ok { Fuzzer.invariant = Some inv; violations; _ } ->
      Printf.sprintf "VIOLATION %s (%d violation%s)" inv violations
        (if violations = 1 then "" else "s")
  | Task.Failed f -> "failed: " ^ f.Task.exn
  | Task.Timed_out b -> "timed out: " ^ b.Task.budget
  | Task.Skipped -> "skipped"

let write_repro path json =
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc

let run_chaos_replay ?budget ~path () =
  let contents =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  match Result.bind contents Fuzzer.case_of_json with
  | Error msg ->
      Printf.eprintf "pdq_sim chaos: cannot replay %s: %s\n%!" path msg;
      exit_bad_trace
  | Ok case -> (
      Printf.printf "replaying %s\n" (Format.asprintf "%a" Fuzzer.pp_case case);
      match Fuzzer.run_case ?budget case with
      | Error msg ->
          Printf.eprintf "pdq_sim chaos: %s\n%!" msg;
          exit_bad_trace
      | exception Pdq_engine.Sim.Cancelled { reason; events } ->
          Printf.printf "replay: TIMED OUT (%s) after %d events\n" reason events;
          exit_timed_out
      | Ok checked ->
          let violations = checked.Scenario.violations in
          Format.printf "%a" Report.pp_list violations;
          if violations = [] then begin
            Printf.printf "replay: clean (no invariant violations)\n";
            0
          end
          else begin
            Printf.printf "replay: %d violation%s, first invariant %s\n"
              (List.length violations)
              (if List.length violations = 1 then "" else "s")
              (match Fuzzer.signature checked with Some s -> s | None -> "?");
            exit_violation_found
          end)

let run_chaos_fuzz ?jobs ?budget ~runs ~seed ~intensity ~protocols
    ~shrink_budget ~repro_out ~checkpoint ~resume ~report_out () =
  let campaign =
    Fuzzer.fuzz ?jobs ?budget ?checkpoint ?resume ~protocols ~intensity ~runs
      ~seed ()
  in
  List.iteri
    (fun i (c, t) ->
      Printf.printf "case %3d: %s: %s\n" i
        (Format.asprintf "%a" Fuzzer.pp_case c)
        (verdict_line t))
    (List.combine campaign.Fuzzer.cases campaign.Fuzzer.verdicts);
  let report = campaign.Fuzzer.report in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Sweep.report_to_json report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "sweep report written to %s\n" path)
    report_out;
  match Fuzzer.first_violation campaign with
  | None ->
      Printf.printf "chaos: %d runs, no invariant violations\n"
        report.Sweep.total;
      if report.Sweep.failed > 0 || report.Sweep.skipped > 0 then
        exit_run_failed
      else if report.Sweep.timed_out > 0 then exit_timed_out
      else 0
  | Some (index, case, invariant) ->
      Printf.printf "chaos: violation of %S in case %d; shrinking...\n"
        invariant index;
      let shrunk =
        Fuzzer.shrink ?budget ~max_runs:shrink_budget case ~invariant
      in
      let minimal = shrunk.Fuzzer.minimal in
      Printf.printf
        "shrunk %d fault + %d adversary events to %d + %d (%d re-runs)\n"
        (Pdq_faults.Fault_plan.length case.Fuzzer.faults)
        (Pdq_chaos.Adversary_plan.length case.Fuzzer.adversary)
        (Pdq_faults.Fault_plan.length minimal.Fuzzer.faults)
        (Pdq_chaos.Adversary_plan.length minimal.Fuzzer.adversary)
        shrunk.Fuzzer.runs_used;
      let json = Fuzzer.case_to_json minimal in
      (match repro_out with
      | Some path ->
          write_repro path json;
          Printf.printf "reproducer written to %s\n" path
      | None -> Printf.printf "reproducer: %s\n" json);
      exit_violation_found

let chaos_term =
  let make runs seed intensity protocols shrink_budget repro_out replay jobs
      timeout max_events checkpoint resume report_out =
    let ( let* ) = Result.bind in
    let* () = if runs <= 0 then Error (`Msg "--runs must be > 0") else Ok () in
    let* () =
      if intensity <= 0. || intensity > 1. then
        Error (`Msg "--intensity must be in (0, 1]")
      else Ok ()
    in
    let* () =
      if shrink_budget < 0 then Error (`Msg "--shrink-budget must be >= 0")
      else Ok ()
    in
    let* protocols =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          match Scenario.protocol_of_string p with
          | Ok _ -> Ok (acc @ [ p ])
          | Error e -> Error (`Msg e))
        (Ok []) protocols
    in
    let budget = budget_of ~timeout ~max_events in
    Ok
      (match replay with
      | Some path -> run_chaos_replay ?budget ~path ()
      | None ->
          run_chaos_fuzz ?jobs ?budget ~runs ~seed ~intensity ~protocols
            ~shrink_budget ~repro_out ~checkpoint ~resume ~report_out ())
  in
  let runs =
    Arg.(value & opt int 25
         & info [ "runs" ] ~doc:"Number of fuzzed cases" ~docv:"N")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"Master seed; the whole campaign is a deterministic \
                   function of it"
             ~docv:"S")
  in
  let intensity =
    Arg.(value & opt float 0.35
         & info [ "intensity" ]
             ~doc:"Adversary intensity in (0, 1]: scales condition \
                   probabilities, jitter and clock skew"
             ~docv:"X")
  in
  let protocols =
    Arg.(value & opt (list string) Fuzzer.default_protocols
         & info [ "protocols" ]
             ~doc:"Comma-separated protocol roster to draw cases from \
                   (include pdq-broken to exercise the canary)"
             ~docv:"P1,P2,...")
  in
  let shrink_budget =
    Arg.(value & opt int 150
         & info [ "shrink-budget" ]
             ~doc:"Maximum re-executions the counterexample shrinker may \
                   spend"
             ~docv:"N")
  in
  let repro_out =
    Arg.(value & opt (some string) None
         & info [ "repro-out" ]
             ~doc:"Write the shrunk reproducer case as JSON to $(docv) \
                   (default: print it); replay with --replay"
             ~docv:"FILE")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ]
             ~doc:"Replay a reproducer case written by --repro-out through \
                   the full validation stack instead of fuzzing; exit 7 if \
                   it still violates"
             ~docv:"FILE")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ]
             ~doc:"Worker domains for the campaign (results and output are \
                   identical for any value)"
             ~docv:"N")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ]
             ~doc:"Per-case wall-clock budget in seconds (cooperative; a \
                   blown case settles as timed out)"
             ~docv:"SEC")
  in
  let max_events =
    Arg.(value & opt (some int) None
         & info [ "max-events" ]
             ~doc:"Per-case simulator event budget" ~docv:"N")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ]
             ~doc:"Stream each completed case verdict to $(docv) as JSONL \
                   keyed by case content hash"
             ~docv:"FILE")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ]
             ~doc:"Preload case verdicts from checkpoint $(docv) and \
                   re-execute only the missing cases"
             ~docv:"FILE")
  in
  let report_out =
    Arg.(value & opt (some string) None
         & info [ "report-out" ]
             ~doc:"Write the campaign's sweep report as JSON to $(docv)"
             ~docv:"FILE")
  in
  Term.term_result
    Term.(
      const make $ runs $ seed $ intensity $ protocols $ shrink_budget
      $ repro_out $ replay $ jobs $ timeout $ max_events $ checkpoint $ resume
      $ report_out)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fuzz the invariant monitors with random adversarial packet \
             conditions (reordering, duplication, header corruption, \
             jitter, clock skew) plus fault plans; on a violation, shrink \
             the case to a minimal reproducer and emit it as replayable \
             JSON (exit 7)")
    chaos_term

let cmd =
  let resilience =
    Arg.(value & flag
         & info [ "resilience" ]
             ~doc:"Run the resilience sweeps (bursty loss, link flapping, \
                   switch reboots) for PDQ vs. RCP/D3/TCP and exit")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ] ~doc:"With --resilience: more seeds and intensities")
  in
  let list_workloads =
    Arg.(value & flag
         & info [ "list-workloads" ]
             ~doc:"List the available workload kinds, job patterns and flow \
                   patterns, then exit")
  in
  let exits =
    (* Rendered straight from the variant, so the man page cannot
       drift from the tested discipline. *)
    List.map
      (fun c -> Cmd.Exit.info ~doc:(Exit_code.describe c) (Exit_code.to_int c))
      Exit_code.
        [ Fault_aborted; Invariant_violation; Timed_out; Run_failed;
          Violation_found ]
    @ Cmd.Exit.defaults
  in
  Cmd.group
    ~default:
      Term.(
        const run $ scenario_term $ opts_term $ resilience $ full
        $ list_workloads)
    (Cmd.info "pdq_sim" ~exits
       ~doc:"Run one packet-level PDQ/RCP/D3/TCP experiment")
    [ forensics_cmd; chaos_cmd ]

let eval ?argv () = Cmd.eval' ?argv cmd
