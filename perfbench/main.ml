(* The repository benchmark.

     python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

   builds this program and runs one workload (see README.md). With
   --trace 0 it runs a closed loop of the workload's operations for T
   seconds and reports the end-to-end metrics; with --trace 1 it
   replays a fixed subset untraced and then traced, and reports the
   per-layer metrics. Either way it checks every output and prints one
   line per metric, then one JSON result object as the last line. *)

module W = Workloads
module L = Layers
module Stats = Pdq_engine.Stats
module Profiler = Pdq_engine.Profiler
module Sweep = Pdq_exec.Sweep

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let ms ns = fi ns *. 1e-6

let percentile xs p =
  if xs = [] then 0. else Stats.percentile (Array.of_list xs) p

(* ------------------------------------------------------------------ *)
(* Output checking. Every operation's output is checked on its own
   (W.run_packet / W.run_solve), must repeat bit for bit when the loop
   wraps around to the same input, and — for the committed seed — the
   digest over one pass of the inputs must match perfbench/digests.json. *)

type ledger = {
  first : string option array;  (* digest of each input's first run *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let ledger n = { first = Array.make n None; attempted = 0; failed = 0; errors = [] }

let fail_op l msg =
  l.failed <- l.failed + 1;
  if List.length l.errors < 5 then l.errors <- msg :: l.errors

let record l i ~digest ~error =
  l.attempted <- l.attempted + 1;
  match (error, l.first.(i)) with
  | Some e, _ -> fail_op l (Printf.sprintf "input %d: %s" i e)
  | None, None -> l.first.(i) <- Some digest
  | None, Some d when d = digest -> ()
  | None, Some _ ->
      fail_op l (Printf.sprintf "input %d: output differs from an earlier run" i)

let pass_digest l =
  W.batch_digest (Array.to_list (Array.map (Option.value ~default:"") l.first))

let scale_key = function W.Batch -> "batch" | W.Subset -> "subset" | W.Smoke -> "smoke"

(* [Some expected] when [seed] is the committed one. Read before the
   run starts, so a missing or malformed digest file stops it at once
   instead of passing as unverified. *)
let committed ~digests ~workload ~scale ~seed =
  let j = Json.of_file digests in
  if int_of_float (Json.to_float (Json.member "seed" j)) <> seed then None
  else
    Some
      (Json.to_string
         (Json.member (scale_key scale) (Json.member workload j)))

type report = {
  metrics : metric list;  (* what BENCHMARK.json lists for this mode *)
  notes : metric list;  (* further lines for people *)
  digest : string;
  verified : string;  (* "verified", "unverified" or "MISMATCH" *)
  ledger : ledger;
  spans : L.spans;
  layers : (string * L.acc) list;
}

let finish ~expected ?(notes = []) ?(spans = L.spans ()) ?(layers = []) l metrics =
  let digest = pass_digest l in
  let verified =
    match expected with
    | None -> "unverified"
    | Some d when d = digest -> "verified"
    | Some d ->
        (* A wrong output makes every operation of the run count as
           failed. *)
        fail_op l ("pass digest differs from the committed " ^ d);
        l.failed <- l.attempted;
        "MISMATCH"
  in
  { metrics; notes; digest; verified; ledger = l; spans; layers }

(* Run inputs [idxs] in the workload's executor: a loop on this domain,
   or Sweep.map over [jobs] domains. Returns the runs in input order
   and the measured nanoseconds — each scenario's build and execute on
   the loop, the whole Sweep.map call on the pool. *)
let packet_pass (p : W.packet) ?(instrument = W.Plain) ~jobs idxs =
  let run i = W.run_packet ~instrument p.W.scenarios.(i) in
  if jobs <= 1 then
    let runs = List.map run idxs in
    ( runs,
      List.fold_left
        (fun a (r : W.run) ->
          a + (r.W.build_end - r.W.build_start) + (r.W.exec_end - r.W.exec_start))
        0 runs )
  else
    let t0 = L.now () in
    let runs = Sweep.map ~jobs run idxs in
    (runs, L.now () - t0)

let slot_ns (r : W.run) = r.W.exec_end - r.W.build_start
let exec_ns (r : W.run) = r.W.exec_end - r.W.exec_start
let sum f = List.fold_left (fun a x -> a + f x) 0
let sumf f = List.fold_left (fun a x -> a +. f x) 0.

(* ------------------------------------------------------------------ *)
(* Timing runs (--trace 0).

   Host interference on a shared machine comes in bursts of a few
   seconds that slow everything running through them by up to 1.7x.
   So the loop repeats every unit of work several times and keeps each
   unit's fastest repeat: its time without the bursts. A unit is one
   scenario on a sequential loop, one Sweep.map call over a fixed
   chunk of scenarios on the domain pool, and one solve on the
   flow-level workload. *)

let keep_best a i ns = if ns < a.(i) then a.(i) <- ns
let bests n = Array.make n max_int
let total a = Array.fold_left ( + ) 0 a

(* Run unit [u mod units] of pass [u / units] for u = 0, 1, ... until
   every unit ran once and [seconds] have passed. Returns the number of
   whole passes. *)
let closed_loop ~units ~seconds f =
  let stop = L.now () + int_of_float (seconds *. 1e9) in
  let u = ref 0 in
  while !u < units || L.now () < stop do
    f (!u mod units) ~pass:(!u / units);
    incr u
  done;
  !u / units

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* What one pass over the inputs computed and cost, summed over each
   input's first run. *)
type pass = {
  mutable inputs : int;
  mutable flows : int;
  mutable completed : int;
  mutable fct_sum : float;
  mutable deadline_flows : int;
  mutable deadline_met : int;
  mutable hops : int;
  mutable words : float;
}

let pass () =
  {
    inputs = 0;
    flows = 0;
    completed = 0;
    fct_sum = 0.;
    deadline_flows = 0;
    deadline_met = 0;
    hops = 0;
    words = 0.;
  }

(* [unit_best]: fastest repeat of each unit; [op_best]: of each input's
   run time (execute, slot or solve). *)
let end_to_end (p : pass) l ~unit_best ~op_best ~setup_s ~wall_ns =
  let best_s = L.seconds (total unit_best) in
  let ops = Array.to_list (Array.map ms op_best) in
  ( [
      metric "flows_per_s" "flows/s" (ratio (fi p.flows) best_s);
      metric "run_ms_p50" "ms" (percentile ops 50.);
      metric "setup_s" "s" setup_s;
    ],
    [
      (* The major heap's high-water mark moves with GC timing across
         domains (4 to 9 MB between runs of mixed-sweep), too noisy to
         gate on. *)
      metric "peak_heap_mb" "MB" (peak_heap_mb ());
      metric "scenarios_per_s" "1/s" (ratio (fi p.inputs) best_s);
      metric "run_ms_p90" "ms" (percentile ops 90.);
      metric "inputs" "count" (fi p.inputs);
      metric "repeats" "count" (ratio (fi l.attempted) (fi p.inputs));
      metric "wall_s" "s" (L.seconds wall_ns);
      metric "failed_ratio" "fraction" (ratio (fi l.failed) (fi l.attempted));
      metric "sim_fct_mean_ms" "sim_ms" (1e3 *. ratio p.fct_sum (fi p.completed));
      metric "sim_deadline_met_pct" "%"
        (if p.deadline_flows = 0 then 100.
         else 100. *. fi p.deadline_met /. fi p.deadline_flows);
    ] )

let measure_packet ~expected (p : W.packet) ~jobs ~seconds =
  let n = Array.length p.W.scenarios in
  ignore (W.run_packet p.W.scenarios.(0));
  let l = ledger n and first = pass () in
  let chunk = if jobs <= 1 then 1 else min n 200 in
  let units = (n + chunk - 1) / chunk in
  let unit_best = bests units and op_best = bests n in
  let wall = ref 0 and builds = Hashtbl.create 16 in
  let passes =
    closed_loop ~units ~seconds (fun u ~pass ->
      let idxs = List.init (min chunk (n - (u * chunk))) (fun j -> (u * chunk) + j) in
      let runs, ns = packet_pass p ~jobs idxs in
      wall := !wall + ns;
      keep_best unit_best u ns;
      List.iter2
        (fun i (r : W.run) ->
          record l i ~digest:r.W.digest ~error:r.W.error;
          keep_best op_best i (if jobs <= 1 then exec_ns r else slot_ns r);
          let b = Option.value (Hashtbl.find_opt builds pass) ~default:0 in
          Hashtbl.replace builds pass (b + r.W.build_end - r.W.build_start);
          if pass = 0 then begin
            first.inputs <- first.inputs + 1;
            first.flows <- first.flows + r.W.flows;
            first.completed <- first.completed + r.W.completed;
            first.fct_sum <- first.fct_sum +. r.W.fct_sum;
            first.deadline_flows <- first.deadline_flows + r.W.deadline_flows;
            first.deadline_met <- first.deadline_met + r.W.deadline_met;
            first.hops <- first.hops + r.W.hops;
            first.words <- first.words +. r.W.words
          end)
        idxs runs)
  in
  (* Set-up: materialising every input once (simulators, topologies,
     flow specs) — the median over whole passes of their build time. *)
  let setup_s =
    percentile (List.init passes (fun k -> L.seconds (Hashtbl.find builds k))) 50.
  in
  let metrics, notes =
    end_to_end first l ~unit_best ~op_best ~setup_s ~wall_ns:!wall
  in
  let notes =
    notes
    @ [
        metric "pkt_hops_per_s" "hops/s"
          (ratio (fi first.hops) (L.seconds (total unit_best)));
        metric "alloc_words_per_hop" "words" (ratio first.words (fi first.hops));
      ]
  in
  finish ~expected ~notes l metrics

(* ------------------------------------------------------------------ *)
(* The flow-level workload. One operation is one solve; the loop
   cycles every protocol over every instance. *)

let measure_flow ~expected (f : W.flow) ~seconds =
  (* Set-up: topology build plus routing, twice per instance (the
     first, on a cold heap, pays for its growth); the median of all. *)
  let setups =
    List.concat_map (fun seed -> [ W.make_instance f ~seed; W.make_instance f ~seed ]) f.W.seeds
  in
  let setup_s =
    percentile
      (List.map (fun (i : W.instance) -> L.seconds (i.W.build_ns + i.W.route_ns)) setups)
      50.
  in
  let instances = Array.of_list (List.filteri (fun k _ -> k mod 2 = 1) setups) in
  let protos = Array.of_list W.flow_protocols in
  let np = Array.length protos in
  let units = Array.length instances * np in
  let l = ledger units and first = pass () in
  let unit_best = bests units and wall = ref 0 in
  ignore @@ closed_loop ~units ~seconds (fun u ~pass ->
      let s = W.run_solve instances.(u / np) (snd protos.(u mod np)) in
      record l u ~digest:s.W.s_digest ~error:s.W.s_error;
      let ns = s.W.s_end - s.W.s_start in
      wall := !wall + ns;
      keep_best unit_best u ns;
      if pass = 0 then begin
        first.inputs <- first.inputs + 1;
        first.flows <- first.flows + s.W.s_flows;
        first.completed <- first.completed + s.W.s_completed;
        first.fct_sum <- first.fct_sum +. s.W.s_fct_sum
      end);
  let metrics, notes =
    end_to_end first l ~unit_best ~op_best:unit_best ~setup_s ~wall_ns:!wall
  in
  finish ~expected ~notes l metrics

(* ------------------------------------------------------------------ *)
(* Per-layer runs (--trace 1): a fixed subset, untraced for the counts
   and the base, then traced for the timings. Every run reports the
   whole list below, in this order; a layer the workload never reaches
   reads 0 (the flow-level workload bypasses the engine, links and
   transports; the packet workloads never call the flow-level solver). *)

(* The event kinds reported one by one: the packet path and every
   protocol's timers. *)
let kinds =
  [
    "link.deliver"; "link.tx"; "pdq.send"; "pdq.probe"; "pdq.rate_ctl";
    "pdq.watchdog"; "rate.send"; "rate.watchdog"; "rcp.tick"; "d3.tick";
    "tcp.timer";
  ]

let switch_port_flows = [ 1; 8; 32 ]

let per_layer_units =
  [
    ("engine.events", "count"); ("engine.events_per_hop", "ratio");
    ("engine.ns_per_event", "ns"); ("engine.self_share", "fraction");
    ("engine.queue_high_water", "count");
    ("engine.cancelled_pop_ratio", "fraction");
  ]
  @ List.concat_map
      (fun k ->
        [
          ("engine.kind." ^ k ^ ".ns_per_event", "ns");
          ("engine.kind." ^ k ^ ".share", "fraction");
        ])
      kinds
  @ [
      ("net.pkt_hops", "count"); ("net.pkt_hops_per_s", "hops/s");
      ("net.alloc_words_per_hop", "words"); ("net.data_hop_share", "fraction");
      ("net.drops_overflow", "count"); ("net.queue_bytes_max", "bytes");
      ("net.router.path_us", "us");
      ("transport.switch_hop_ns", "ns"); ("transport.switch_hop_share", "fraction");
      ("transport.host_rx_ns", "ns"); ("transport.host_rx_share", "fraction");
      ("core.flow_list_len_mean", "entries"); ("core.flow_list_len_max", "entries");
      ("core.paused_share", "fraction");
    ]
  @ List.concat_map
      (fun f ->
        [
          (Printf.sprintf "core.switch_port.fwd_ns.f%d" f, "ns");
          (Printf.sprintf "core.switch_port.rev_ns.f%d" f, "ns");
        ])
      switch_port_flows
  @ [
      ("core.switch_port.words_per_header", "words");
      ("exec.build_ms_p50", "ms"); ("exec.slot_ms_p50", "ms");
      ("exec.slot_ms_p90", "ms"); ("exec.parallel_efficiency", "fraction");
      ("gc.peak_heap_mb", "MB"); ("gc.minor_collections", "count");
      ("gc.major_collections", "count"); ("gc.promoted_ratio", "fraction");
      ("telemetry.profiler_overhead", "ratio");
      ("telemetry.memory_sink_overhead", "ratio");
      ("flowsim.build_s", "s"); ("flowsim.solve_s.pdq", "s");
      ("flowsim.solve_s.rcp", "s"); ("flowsim.solve_s.d3", "s");
    ]

let per_layer values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        invalid_arg ("per-layer metric not in the list: " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      metric name unit_ (Option.value (List.assoc_opt name values) ~default:0.))
    per_layer_units

let switch_port_values ~calls =
  let stages =
    List.map (fun flows -> (flows, L.switch_port_stage ~flows ~calls)) switch_port_flows
  in
  List.concat_map
    (fun (f, (s : L.stage)) ->
      [
        (Printf.sprintf "core.switch_port.fwd_ns.f%d" f, s.L.fwd_ns);
        (Printf.sprintf "core.switch_port.rev_ns.f%d" f, s.L.rev_ns);
      ])
    stages
  @ [
      ( "core.switch_port.words_per_header",
        ratio
          (sumf (fun (_, (s : L.stage)) -> s.L.words) stages)
          (fi (sum (fun (_, (s : L.stage)) -> s.L.calls) stages)) );
    ]

let gc_values (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ("gc.peak_heap_mb", peak_heap_mb ());
    ("gc.minor_collections", fi (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ("gc.major_collections", fi (g1.Gc.major_collections - g0.Gc.major_collections));
    ( "gc.promoted_ratio",
      ratio
        (g1.Gc.promoted_words -. g0.Gc.promoted_words)
        (g1.Gc.minor_words -. g0.Gc.minor_words) );
  ]

let layers_packet ~expected (w : W.t) (p : W.packet) ~jobs ~scale =
  let n = Array.length p.W.scenarios in
  let idxs = List.init n Fun.id in
  let l = ledger n in
  let record_all idxs runs =
    List.iter2 (fun i (r : W.run) -> record l i ~digest:r.W.digest ~error:r.W.error) idxs runs
  in
  (* Untraced: the counts, and the base the tracing overhead is
     measured against. *)
  let g0 = Gc.quick_stat () in
  let t0 = L.now () in
  let plain, plain_ns = packet_pass p ~jobs idxs in
  let pass_ns = L.now () - t0 in
  let g1 = Gc.quick_stat () in
  (* Traced: the same inputs again, instrumented. *)
  let profiler = Profiler.create () in
  let spans = L.spans () in
  let traced, traced_ns = packet_pass p ~instrument:(W.Traced profiler) ~jobs idxs in
  let root =
    L.span spans ("workload." ^ w.W.name) ~start_ns:spans.L.epoch ~end_ns:(L.now ())
  in
  List.iter
    (fun (r : W.run) ->
      let parent =
        L.span spans ~parent:root ~domain:r.W.domain
          (if jobs <= 1 then "scenario" else "exec.slot")
          ~start_ns:r.W.build_start ~end_ns:r.W.exec_end
      in
      ignore
        (L.span spans ~parent ~domain:r.W.domain "exec.build"
           ~start_ns:r.W.build_start ~end_ns:r.W.build_end);
      ignore
        (L.span spans ~parent ~domain:r.W.domain "transport.execute"
           ~start_ns:r.W.exec_start ~end_ns:r.W.exec_end))
    traced;
  let probe = L.probe () in
  List.iter (fun (r : W.run) -> Option.iter (L.merge_probe probe) r.W.probe) traced;
  (* A memory trace sink on the first few inputs, against the same
     inputs run bare right before it, on this domain. *)
  let few = List.filteri (fun i _ -> i < 10) idxs in
  let bare, bare_ns = packet_pass p ~jobs:1 few in
  let mem, mem_ns = packet_pass p ~instrument:W.Memory_sink ~jobs:1 few in
  List.iter2 record_all [ idxs; idxs; few; few ] [ plain; traced; bare; mem ];
  let events = sum (fun (r : W.run) -> r.W.events) plain in
  let hops = sum (fun (r : W.run) -> r.W.hops) plain in
  let plain_exec = sum exec_ns plain and traced_exec = fi (sum exec_ns traced) in
  let kind_stats = Profiler.kinds profiler in
  let kind_cpu = sumf (fun (_, (_, cpu)) -> cpu) kind_stats in
  let executed = Profiler.events_executed profiler in
  let cancelled = Profiler.events_cancelled profiler in
  let deliveries = probe.L.switch_rx.L.count + probe.L.host_rx.L.count in
  let rx name (a : L.acc) =
    [
      ("transport." ^ name ^ "_ns", ratio (fi a.L.ns) (fi a.L.count));
      ("transport." ^ name ^ "_share", ratio (fi a.L.ns) traced_exec);
    ]
  in
  let slots = List.map (fun r -> ms (slot_ns r)) plain in
  let values =
    [
      ("engine.events", fi events);
      ("engine.events_per_hop", ratio (fi events) (fi hops));
      ("engine.ns_per_event", ratio (fi plain_exec) (fi events));
      ("engine.self_share", 1. -. ratio (kind_cpu *. 1e9) traced_exec);
      ("engine.queue_high_water", fi (Profiler.queue_high_water profiler));
      ("engine.cancelled_pop_ratio", ratio (fi cancelled) (fi (executed + cancelled)));
    ]
    @ List.concat_map
        (fun k ->
          let count, cpu = Option.value (List.assoc_opt k kind_stats) ~default:(0, 0.) in
          [
            ("engine.kind." ^ k ^ ".ns_per_event", ratio (cpu *. 1e9) (fi count));
            ("engine.kind." ^ k ^ ".share", ratio (cpu *. 1e9) traced_exec);
          ])
        kinds
    @ [
        ("net.pkt_hops", fi hops);
        ("net.pkt_hops_per_s", ratio (fi hops) (L.seconds plain_exec));
        ( "net.alloc_words_per_hop",
          ratio (sumf (fun (r : W.run) -> r.W.words) plain) (fi hops) );
        ("net.data_hop_share", ratio (fi probe.L.data_rx) (fi deliveries));
        ("net.drops_overflow", fi (sum (fun (r : W.run) -> r.W.drops_overflow) plain));
        ("net.queue_bytes_max", fi probe.L.queue_max);
      ]
    @ rx "switch_hop" probe.L.switch_rx
    @ rx "host_rx" probe.L.host_rx
    @ [
        ("core.flow_list_len_mean", ratio (fi probe.L.stored_sum) (fi probe.L.port_views));
        ("core.flow_list_len_max", fi probe.L.stored_max);
        ("core.paused_share", ratio (fi probe.L.paused_sum) (fi probe.L.stored_sum));
      ]
    @ switch_port_values ~calls:(if scale = W.Smoke then 2_000 else 200_000)
    @ [
        ( "exec.build_ms_p50",
          percentile
            (List.map (fun (r : W.run) -> ms (r.W.build_end - r.W.build_start)) plain)
            50. );
        ("exec.slot_ms_p50", percentile slots 50.);
        ("exec.slot_ms_p90", percentile slots 90.);
        ( "exec.parallel_efficiency",
          ratio (fi (sum slot_ns plain)) (fi (max 1 jobs) *. fi pass_ns) );
      ]
    @ gc_values g0 g1
    @ [
        ("telemetry.profiler_overhead", ratio (fi traced_ns) (fi plain_ns));
        ("telemetry.memory_sink_overhead", ratio (fi mem_ns) (fi bare_ns));
      ]
  in
  finish ~expected ~spans
    ~layers:
      [ ("transport.switch_hop", probe.L.switch_rx); ("transport.host_rx", probe.L.host_rx) ]
    l (per_layer values)

let layers_flow ~expected (w : W.t) (f : W.flow) =
  let spans = L.spans () in
  let t0 = spans.L.epoch in
  let inst = W.make_instance f ~seed:(List.hd f.W.seeds) in
  let g0 = Gc.quick_stat () in
  let plain = List.map (fun (_, p) -> W.run_solve inst p) W.flow_protocols in
  let g1 = Gc.quick_stat () in
  let traced = List.map (fun (_, p) -> W.run_solve inst p) W.flow_protocols in
  let root = L.span spans ("workload." ^ w.W.name) ~start_ns:t0 ~end_ns:(L.now ()) in
  let built = t0 + inst.W.build_ns in
  ignore (L.span spans ~parent:root "flowsim.build" ~start_ns:t0 ~end_ns:built);
  ignore
    (L.span spans ~parent:root "flowsim.route" ~start_ns:built
       ~end_ns:(built + inst.W.route_ns));
  List.iter2
    (fun (name, _) (s : W.solve) ->
      ignore
        (L.span spans ~parent:root ("flowsim.solve." ^ name) ~start_ns:s.W.s_start
           ~end_ns:s.W.s_end))
    W.flow_protocols traced;
  let l = ledger (List.length W.flow_protocols) in
  List.iter
    (List.iteri (fun i (s : W.solve) -> record l i ~digest:s.W.s_digest ~error:s.W.s_error))
    [ plain; traced ];
  let solve_ns (s : W.solve) = s.W.s_end - s.W.s_start in
  let values =
    gc_values g0 g1
    @ [
        ("telemetry.profiler_overhead", ratio (fi (sum solve_ns traced)) (fi (sum solve_ns plain)));
        ("flowsim.build_s", L.seconds inst.W.build_ns);
        ("net.router.path_us", ratio (fi inst.W.path_ns *. 1e-3) (fi inst.W.path_calls));
      ]
    @ List.map2
        (fun (name, _) s -> ("flowsim.solve_s." ^ name, L.seconds (solve_ns s)))
        W.flow_protocols plain
  in
  finish ~expected ~spans l (per_layer values)

(* ------------------------------------------------------------------ *)

(* [digests]: the committed digest file, or [None] to skip the check. *)
let run_workload ~digests ?jobs (w : W.t) ~trace ~scale ~seed ~seconds =
  let expected =
    Option.bind digests (fun digests ->
        committed ~digests ~workload:w.W.name ~scale ~seed)
  in
  match w.W.inputs ~seed scale with
  | W.Packet p ->
      let jobs = Option.value jobs ~default:p.W.jobs in
      if trace then layers_packet ~expected w p ~jobs ~scale
      else measure_packet ~expected p ~jobs ~seconds
  | W.Flow f ->
      if trace then layers_flow ~expected w f
      else measure_flow ~expected f ~seconds

let print_report (w : W.t) r =
  let line m = Printf.printf "%s %s %.6g %s\n" w.W.name m.name m.value m.unit_ in
  List.iter line r.notes;
  List.iter line r.metrics;
  Printf.printf "%s digest %s %s\n" w.W.name r.digest r.verified;
  List.iter (Printf.printf "%s error %s\n" w.W.name) (List.rev r.ledger.errors);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.ledger.failed = 0) r.ledger.attempted r.ledger.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote m.name)
              (Json.number m.value) (Json.quote m.unit_))
          r.metrics))

(* ------------------------------------------------------------------ *)
(* Smoke test (dune runtest): every workload at its smoke scale and
   seed 1, untraced and traced. Silent unless something is wrong. *)

let smoke ~digests ~benchmark =
  let names key =
    List.map
      (fun m -> Json.to_string (Json.member "name" m))
      (Json.to_list (Json.member key (Json.of_file benchmark)))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let run w ?jobs trace =
    run_workload ~digests:(Some digests) ?jobs w ~trace ~scale:W.Smoke ~seed:1
      ~seconds:0.
  in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (trace, key) ->
          let r = run w trace in
          List.iter
            (fun name ->
              if not (List.exists (fun m -> m.name = name) r.metrics) then
                problem "%s: metric %s missing (trace %b)" w.W.name name trace)
            (names key);
          if r.ledger.failed > 0 || r.verified <> "verified" then
            problem "%s (trace %b): %d of %d failed, digest %s %s: %s" w.W.name
              trace r.ledger.failed r.ledger.attempted r.digest r.verified
              (String.concat "; " r.ledger.errors))
        [ (false, "end_to_end"); (true, "per_layer") ];
      match w.W.inputs ~seed:1 W.Smoke with
      | W.Packet { jobs; _ } when jobs > 1 ->
          let one = run w ~jobs:1 false in
          if one.verified <> "verified" then
            problem "%s: digest at jobs=1 differs from jobs=%d" w.W.name jobs
      | _ -> ())
    W.all;
  List.iter prerr_endline (List.rev !problems);
  if !problems <> [] then exit 1

(* Fresh digests for perfbench/digests.json, after a deliberate change
   of the model's outputs. *)
let print_digests () =
  let entry (w : W.t) =
    Printf.sprintf "  %s: {%s}" (Json.quote w.W.name)
      (String.concat ", "
         (List.map
            (fun scale ->
              let r =
                run_workload ~digests:None w ~trace:false ~scale ~seed:1 ~seconds:0.
              in
              Printf.sprintf "%s: %s" (Json.quote (scale_key scale)) (Json.quote r.digest))
            [ W.Batch; W.Subset; W.Smoke ]))
  in
  Printf.printf "{\n  \"seed\": 1,\n%s\n}\n" (String.concat ",\n" (List.map entry W.all))

(* Without --workload: every workload, untraced then traced, each in
   its own process so one workload's heap never shows in another's. *)
let run_all ~seed ~seconds ~trace_out =
  let failures = ref 0 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun trace ->
          let args =
            [ "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
              string_of_float seconds; "--trace"; trace ]
            @ (match trace_out with
              | Some f when trace = "1" -> [ "--trace-out"; f ^ "." ^ w.W.name ^ ".jsonl" ]
              | _ -> [])
          in
          let pid =
            Unix.create_process Sys.executable_name
              (Array.of_list (Sys.executable_name :: args))
              Unix.stdin Unix.stdout Unix.stderr
          in
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> ()
          | _ -> incr failures)
        [ "0"; "1" ])
    W.all;
  if !failures > 0 then exit 1

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 25. in
  let trace = ref 0 and trace_out = ref None in
  let digests = ref "perfbench/digests.json" and benchmark = ref "BENCHMARK.json" in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s),
       "W run one workload (default: all, each in its own process)");
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "T measured seconds (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s),
       "F write the traced pass's spans to F as JSONL");
      ("--digests", Arg.Set_string digests, "F committed digests (default perfbench/digests.json)");
      ("--benchmark-json", Arg.Set_string benchmark, "F metric list for --smoke");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " quick self-check of every workload");
      ("--print-digests", Arg.Unit (fun () -> mode := `Digests),
       " print fresh seed-1 digests for perfbench/digests.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: the repository benchmark (see perfbench/README.md)";
  let digests = !digests in
  match (!mode, !workload) with
  | `Smoke, _ -> smoke ~digests ~benchmark:!benchmark
  | `Digests, _ -> print_digests ()
  | `Run, None -> run_all ~seed:!seed ~seconds:!seconds ~trace_out:!trace_out
  | `Run, Some name -> (
      match W.find name with
      | None ->
          Printf.eprintf "unknown workload %s; known: %s\n" name
            (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
          exit 2
      | Some w ->
          let traced = !trace = 1 in
          let r =
            run_workload ~digests:(Some digests) w ~trace:traced
              ~scale:(if traced then W.Subset else W.Batch)
              ~seed:!seed ~seconds:!seconds
          in
          Option.iter (fun f -> L.write_spans f r.spans r.layers) !trace_out;
          print_report w r)
