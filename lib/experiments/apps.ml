module Runner = Pdq_transport.Runner
module Config = Pdq_core.Config
module Scenario = Pdq_exec.Scenario
module Trace = Pdq_telemetry.Trace
module Job_metrics = Pdq_apps.Job_metrics
module Job_forensics = Pdq_apps.Job_forensics

let protocols =
  [
    ("PDQ(Full)", Runner.Pdq Config.full);
    ("RCP", Runner.Rcp);
    ("D3", Runner.D3);
    ("TCP", Runner.Tcp);
  ]

let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ]

let jobs_scenario ?(pattern = Scenario.Partition_aggregate) ?(count = 2)
    ?(width = 4) ?(depth = 1) protocol =
  Scenario.make
    ~name:
      (Printf.sprintf "%s %s jobs w%d d%d"
         (Runner.protocol_name protocol)
         (Scenario.job_pattern_name pattern)
         width depth)
    ~horizon:5.
    ~workload:
      (Scenario.Jobs
         {
           pattern;
           count;
           width;
           depth;
           sizes = Scenario.Uniform_paper { mean_bytes = 100_000 };
           deadlines = Scenario.Exp_deadlines { mean = 0.02; floor = 3e-3 };
           rate = None;
         })
    protocol

let mean_jct_ms reports =
  let n = float_of_int (List.length reports) in
  1e3
  *. (List.fold_left
        (fun acc (r : Job_metrics.report) -> acc +. r.Job_metrics.mean_jct)
        0. reports
     /. n)

(* Misses are pooled over the seeds, not averaged per seed: with a
   couple of deadline jobs per run, per-seed rates are too grainy. *)
let miss_pct reports =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let total = sum (fun (r : Job_metrics.report) -> r.Job_metrics.deadline_jobs)
  and met = sum (fun (r : Job_metrics.report) -> r.Job_metrics.deadline_met) in
  if total = 0 then 0. else 100. *. float_of_int (total - met) /. float_of_int total

let table_of ~title ~row_label ~metric ?jobs ~quick scenario_of row_keys =
  let measured =
    Common.grid ?jobs ~seeds:(seeds ~quick) ~cell:metric
      ~run:(fun rk (_, proto) seed ->
        snd (Scenario.run_jobs (Scenario.with_seed (scenario_of rk proto) seed)))
      row_keys protocols
  in
  let rows =
    List.map2
      (fun k cells -> string_of_int k :: List.map Common.cell cells)
      row_keys measured
  in
  {
    Common.title;
    header = row_label :: List.map fst protocols;
    rows;
  }

let fanin_table ?jobs ?(quick = true) () =
  let widths = if quick then [ 2; 4; 8 ] else [ 2; 4; 6; 8; 10 ] in
  table_of ?jobs ~quick
    ~title:"Mean JCT [ms] vs partition-aggregate fan-in (2 jobs)"
    ~row_label:"fan-in" ~metric:mean_jct_ms
    (fun w proto -> jobs_scenario ~width:w proto)
    widths

let depth_table ?jobs ?(quick = true) () =
  let depths = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5 ] in
  table_of ?jobs ~quick
    ~title:"Mean JCT [ms] vs partition-aggregate stage depth (fan-in 4)"
    ~row_label:"depth" ~metric:mean_jct_ms
    (fun d proto -> jobs_scenario ~depth:d proto)
    depths

let miss_table ?jobs ?(quick = true) () =
  let widths = if quick then [ 2; 4; 8 ] else [ 2; 4; 6; 8; 10 ] in
  table_of ?jobs ~quick
    ~title:"Job deadline misses [%] vs partition-aggregate fan-in (2 jobs)"
    ~row_label:"fan-in" ~metric:miss_pct
    (fun w proto -> jobs_scenario ~width:w proto)
    widths

let straggler_table ?(width = 4) ?(count = 2) ?(seed = 1) () =
  let mem = Trace.memory () in
  let telemetry = { Runner.no_telemetry with Runner.sinks = [ mem ] } in
  let scenario =
    Scenario.with_seed (jobs_scenario ~count ~width (Runner.Pdq Config.full)) seed
  in
  let _, report = Scenario.run_jobs ~telemetry scenario in
  let stragglers =
    Job_forensics.stragglers ~events:(Trace.memory_events mem) report
  in
  let ms x = Common.cell (1e3 *. x) in
  let row (s : Job_forensics.straggler) =
    let open Pdq_forensics.Attribution in
    s.Job_forensics.job
    :: string_of_int s.Job_forensics.flow
    :: ms s.Job_forensics.jct
    ::
    (match s.Job_forensics.flow_report with
    | Some f -> [ ms f.fct; ms f.c.serialization; ms f.c.paused; ms f.c.recovery ]
    | None -> [ "-"; "-"; "-"; "-" ])
  in
  {
    Common.title =
      Printf.sprintf
        "Straggler attribution - PDQ(Full), %d partition-aggregate jobs, \
         fan-in %d, seed %d"
        count width seed;
    header = [ "job"; "flow"; "jct"; "fct"; "send"; "paused"; "recov" ];
    rows = List.map row stragglers;
  }

let run_all ?jobs ?(quick = true) ppf () =
  Format.fprintf ppf "%a" Common.pp_table (fanin_table ?jobs ~quick ());
  Format.fprintf ppf "%a" Common.pp_table (depth_table ?jobs ~quick ());
  Format.fprintf ppf "%a" Common.pp_table (miss_table ?jobs ~quick ());
  Format.fprintf ppf "%a" Common.pp_table (straggler_table ())
