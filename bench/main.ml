(* Benchmark harness: regenerates the series behind every table and
   figure of the paper's evaluation (one target per figure), plus the
   engine microbenchmark and the paper-fidelity gate.

   Usage:
     dune exec bench/main.exe                 -- all figures, quick mode
     dune exec bench/main.exe -- --only fig3a -- one figure
     dune exec bench/main.exe -- --full       -- full sweeps (slow)
     dune exec bench/main.exe -- --engine     -- engine microbenchmark
     dune exec bench/main.exe -- --fidelity   -- paper-fidelity regression
                                                gate (exit 1 on drift)
     dune exec bench/main.exe -- --fidelity-dump -- measured values for a
                                                band refresh

   Every figure target additionally writes BENCH_<target>.json (wall
   time, simulator events, events/s, peak heap) next to the cwd for
   machine-readable perf tracking; the files are gitignored. *)

module E = Pdq_experiments
open E

let ppf = Format.std_formatter

let targets : (string * (quick:bool -> jobs:int option -> unit)) list =
  [
    ( "fig1",
      fun ~quick:_ ~jobs:_ ->
        Common.pp_table ppf (Fig1.completion_table ());
        Common.pp_table ppf (Fig1.deadline_table ()) );
    ("fig3a", fun ~quick ~jobs -> Common.pp_table ppf (Fig3.fig3a ?jobs ~quick ()));
    ("fig3b", fun ~quick ~jobs -> Common.pp_table ppf (Fig3.fig3b ?jobs ~quick ()));
    ("fig3c", fun ~quick ~jobs -> Common.pp_table ppf (Fig3.fig3c ?jobs ~quick ()));
    ("fig3d", fun ~quick ~jobs -> Common.pp_table ppf (Fig3.fig3d ?jobs ~quick ()));
    ("fig3e", fun ~quick ~jobs -> Common.pp_table ppf (Fig3.fig3e ?jobs ~quick ()));
    ("fig4a", fun ~quick ~jobs -> Common.pp_table ppf (Fig4.fig4a ?jobs ~quick ()));
    ("fig4b", fun ~quick ~jobs -> Common.pp_table ppf (Fig4.fig4b ?jobs ~quick ()));
    ("fig5a", fun ~quick ~jobs -> Common.pp_table ppf (Fig5.fig5a ?jobs ~quick ()));
    ("fig5b", fun ~quick ~jobs -> Common.pp_table ppf (Fig5.fig5b ?jobs ~quick ()));
    ("fig5c", fun ~quick ~jobs -> Common.pp_table ppf (Fig5.fig5c ?jobs ~quick ()));
    ( "fig6",
      fun ~quick:_ ~jobs:_ -> Common.pp_table ppf (Dynamics.fig6_table ()) );
    ( "fig7",
      fun ~quick:_ ~jobs:_ -> Common.pp_table ppf (Dynamics.fig7_table ()) );
    ("fig8a", fun ~quick ~jobs -> Common.pp_table ppf (Fig8.fig8a ?jobs ~quick ()));
    ("fig8b", fun ~quick ~jobs -> Common.pp_table ppf (Fig8.fig8b ?jobs ~quick ()));
    ("fig8c", fun ~quick ~jobs -> Common.pp_table ppf (Fig8.fig8c ?jobs ~quick ()));
    ("fig8d", fun ~quick ~jobs -> Common.pp_table ppf (Fig8.fig8d ?jobs ~quick ()));
    ("fig8e", fun ~quick ~jobs -> Common.pp_table ppf (Fig8.fig8e ?jobs ~quick ()));
    ( "fig9",
      fun ~quick ~jobs ->
        Common.pp_table ppf (Fig9.fig9a ?jobs ~quick ());
        Common.pp_table ppf (Fig9.fig9b ?jobs ~quick ()) );
    ("fig10", fun ~quick ~jobs -> Common.pp_table ppf (Fig10.fig10 ?jobs ~quick ()));
    ("fig11a", fun ~quick ~jobs -> Common.pp_table ppf (Fig11.fig11a ?jobs ~quick ()));
    ("fig11bc", fun ~quick ~jobs -> Common.pp_table ppf (Fig11.fig11bc ?jobs ~quick ()));
    ("fig12", fun ~quick ~jobs -> Common.pp_table ppf (Fig12.fig12 ?jobs ~quick ()));
    ( "ablation",
      fun ~quick ~jobs ->
        Common.pp_table ppf (Ablation.early_start_k ?jobs ~quick ());
        Common.pp_table ppf (Ablation.probing ?jobs ~quick ());
        Common.pp_table ppf (Ablation.dampening ?jobs ~quick ()) );
    ( "forensics",
      fun ~quick:_ ~jobs:_ ->
        Common.pp_table ppf (Fig3.attribution ());
        Common.pp_table ppf (Fig9.attribution ());
        Common.pp_table ppf (Resilience.attribution ()) );
    ("apps", fun ~quick ~jobs -> Apps.run_all ?jobs ~quick ppf ());
    ("chaos", fun ~quick ~jobs -> Chaos.run_all ?jobs ~quick ppf ());
  ]

(* Machine-readable per-target record: wall-clock seconds, simulator
   events executed (global-profiler delta over the target), resulting
   events/s and the process peak heap. One JSON object per file so CI
   can diff runs without parsing the human tables. *)
let write_bench_json ~name ~wall ~events =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"target\": \"%s\", \"wall_s\": %.3f, \"events\": %d, \
     \"events_per_s\": %.0f, \"peak_heap_words\": %d}\n"
    name wall events
    (if wall > 0. then float_of_int events /. wall else 0.)
    (Gc.quick_stat ()).Gc.top_heap_words;
  close_out oc

(* Engine microbenchmark: the event-core hot path in isolation.

   64 self-rescheduling tick timers with slightly detuned periods keep
   the heap busy; every tick also cancels its previous auxiliary
   one-shot and schedules a fresh one, exercising the
   generation-counter cancel path and slot reuse exactly the way
   transport watchdogs do. All closures are preallocated before the
   clock starts, so the measured loop is the engine alone: schedule,
   cancel, sift, pop. Reported as best-of-5 events per second of
   process CPU time, which a busy host disturbs less than wall time,
   plus the GC minor-words-per-event figure that guards the
   allocation-free claim. *)
let k_bench_tick = Pdq_engine.Sim.Kind.register "bench.tick"
let k_bench_aux = Pdq_engine.Sim.Kind.register "bench.aux"

let engine_run_once ~target_events =
  let module Sim = Pdq_engine.Sim in
  let sim = Sim.create () in
  let n = 64 in
  (* A pre-cancelled far-future dummy seeds the aux-handle array: its
     stale handle makes each timer's first cancel a recognised no-op
     without boxing handles in an option. *)
  let sentinel = Sim.schedule sim ~delay:1e9 ignore in
  Sim.cancel sim sentinel;
  let aux = Array.make n sentinel in
  let ticks = Array.make n (fun () -> ()) in
  for i = 0 to n - 1 do
    let delay = 1e-5 +. (1e-7 *. float_of_int i) in
    ticks.(i) <-
      (fun () ->
        Sim.cancel sim aux.(i);
        aux.(i) <- Sim.schedule_k sim k_bench_aux ~delay:1e-4 ignore;
        if Sim.events_executed sim < target_events then
          ignore (Sim.schedule_k sim k_bench_tick ~delay ticks.(i)))
  done;
  for i = 0 to n - 1 do
    ignore
      (Sim.schedule_k sim k_bench_tick
         ~delay:(1e-5 +. (1e-7 *. float_of_int i))
         ticks.(i))
  done;
  let cpu_time () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let minor0 = Gc.minor_words () in
  let t0 = cpu_time () in
  Sim.run sim;
  let cpu = cpu_time () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let events = Sim.events_executed sim in
  (cpu, events, minor /. float_of_int events)

(* [--engine] writes the baseline file; a [--compare] run writes its
   own file, so the baseline it is checked against is never rewritten. *)
let engine_json_path = "BENCH_engine.json"
let engine_run_json_path = "BENCH_engine.run.json"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let engine_bench ?compare ~threshold () =
  let baseline =
    Option.map
      (fun path ->
        let module Json = Pdq_telemetry.Json in
        match Json.(obj (parse (read_file path))) with
        | o -> Json.(float o "events_per_s", float o "minor_words_per_event")
        | exception Json.Parse_error msg ->
            Format.printf "compare: %s: %s@." path msg;
            exit 1)
      compare
  in
  let target_events = 2_000_000 in
  Format.printf "engine microbenchmark (%d events, best of 5, CPU time)@."
    target_events;
  let best = ref None in
  for _run = 1 to 5 do
    let cpu, events, mwpe = engine_run_once ~target_events in
    let eps = float_of_int events /. cpu in
    Format.printf "  %.3fs  %d events  %.2fM ev/s  %.3f minor words/event@."
      cpu events (eps /. 1e6) mwpe;
    match !best with
    | Some (e, _, _, _) when e >= eps -> ()
    | _ -> best := Some (eps, cpu, events, mwpe)
  done;
  let eps, cpu, events, mwpe = Option.get !best in
  Format.printf "engine: %.2fM events/s, %.3f minor words/event@."
    (eps /. 1e6) mwpe;
  let path =
    if Option.is_none baseline then engine_json_path else engine_run_json_path
  in
  (* Words per event as written, to the file's precision. *)
  let mwpe = float_of_string (Printf.sprintf "%.3f" mwpe) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"target\": \"engine\", \"cpu_s\": %.3f, \"events\": %d, \
     \"events_per_s\": %.0f, \"minor_words_per_event\": %.3f}\n"
    cpu events eps mwpe;
  close_out oc;
  Format.printf "wrote %s@." path;
  match baseline with
  | None -> ()
  | Some (base_eps, base_mwpe) ->
      let floor = base_eps /. threshold in
      Format.printf
        "compare: current %.2fM ev/s vs baseline %.2fM ev/s \
         (floor %.2fM at %.2fx threshold); %.3f vs %.3f minor words/event@."
        (eps /. 1e6) (base_eps /. 1e6) (floor /. 1e6) threshold mwpe base_mwpe;
      if eps < floor then begin
        Format.printf "perf regression: engine below %.2fx floor@." threshold;
        exit 1
      end
      else if mwpe > base_mwpe then begin
        Format.printf "perf regression: engine allocates more than baseline@.";
        exit 1
      end
      else Format.printf "perf smoke passed@."

(* Per-target wall-clock deadline: installed as the process-wide
   default cancel hook so the simulators created on sweep worker
   domains see it too (a domain-local default would not reach them).
   A target that blows the deadline raises [Sim.Cancelled] out of its
   deepest simulation; the driver prints a marker and moves on, so one
   runaway figure cannot eat the whole bench run. *)
let with_target_deadline timeout f =
  match timeout with
  | None -> f ()
  | Some secs ->
      let deadline = Unix.gettimeofday () +. secs in
      Pdq_engine.Sim.set_global_cancel (fun _ ->
          if Unix.gettimeofday () > deadline then
            Some (Printf.sprintf "wall>%gs" secs)
          else None);
      Fun.protect ~finally:Pdq_engine.Sim.clear_global_cancel f

let () =
  let only = ref None and full = ref false in
  let fidelity = ref false and fidelity_dump = ref false in
  let jobs = ref None and timeout = ref None in
  let run_engine = ref false and compare_file = ref None in
  let compare_threshold = ref 1.5 in
  let args =
    [
      ("--only", Arg.String (fun s -> only := Some s), "FIG run a single target");
      ("--full", Arg.Set full, " full sweeps (slow)");
      ("--jobs", Arg.Int (fun n -> jobs := Some n),
       "N worker domains for the scenario sweeps (results are identical \
        for any N)");
      ("--timeout", Arg.Float (fun s -> timeout := Some s),
       "SEC wall-clock budget per figure target; a target that blows it \
        is marked TIMED OUT and the next one runs");
      ("--engine", Arg.Set run_engine,
       " engine microbenchmark (events/s + minor words/event); writes \
        BENCH_engine.json");
      ("--compare", Arg.String (fun s -> compare_file := Some s),
       "FILE compare the engine microbenchmark against a baseline JSON \
        and exit 1 below the threshold floor or above its minor \
        words/event (implies --engine); writes BENCH_engine.run.json");
      ("--compare-threshold",
       Arg.Float (fun t -> compare_threshold := t),
       "X allowed slowdown factor vs baseline before --compare fails \
        (default 1.5)");
      ("--fidelity", Arg.Set fidelity,
       " paper-fidelity regression gate (exit 1 when a metric drifts out \
        of its committed band or an invariant is violated)");
      ("--fidelity-dump", Arg.Set fidelity_dump,
       " print measured fidelity values for a deliberate band refresh");
    ]
  in
  Arg.parse args (fun _ -> ()) "pdq bench";
  if !fidelity_dump then Fidelity.dump ?jobs:!jobs ppf
  else if !fidelity then begin
    if not (Fidelity.run ?jobs:!jobs ppf) then begin
      Format.printf "fidelity gate FAILED@.";
      exit 1
    end;
    Format.printf "fidelity gate passed@."
  end
  else if !run_engine || !compare_file <> None then
    engine_bench ?compare:!compare_file ~threshold:!compare_threshold ()
  else begin
    let quick = not !full in
    let selected =
      match !only with
      | None -> targets
      | Some name -> List.filter (fun (n, _) -> n = name) targets
    in
    if selected = [] then begin
      Format.printf "unknown target; available:@.";
      List.iter (fun (n, _) -> Format.printf "  %s@." n) targets
    end
    else begin
      (* Per-target simulator profile: every Sim.t the figure code
         creates attaches to the global profiler; reset between targets
         so each report covers one figure. *)
      let profiler = Pdq_engine.Profiler.enable_global () in
      List.iter
        (fun (name, f) ->
          Pdq_engine.Profiler.reset profiler;
          let t0 = Unix.gettimeofday () in
          (match
             with_target_deadline !timeout (fun () -> f ~quick ~jobs:!jobs)
           with
          | () ->
              let wall = Unix.gettimeofday () -. t0 in
              Format.printf "[%s done in %.1fs]@.%a@.@." name wall
                Pdq_engine.Profiler.pp_report profiler;
              write_bench_json ~name ~wall
                ~events:(Pdq_engine.Profiler.events_executed profiler)
          | exception e ->
              (* A deadline surfaces as Sim.Cancelled, possibly wrapped
                 in Sweep_errors by a parallel figure sweep. *)
              let wall = Unix.gettimeofday () -. t0 in
              Format.printf "[%s %s after %.1fs: %s]@.@." name
                (match e with
                | Pdq_engine.Sim.Cancelled _
                | Pdq_exec.Sweep.Sweep_errors _ ->
                    "TIMED OUT"
                | _ -> "FAILED")
                wall (Printexc.to_string e)))
        selected
    end
  end
