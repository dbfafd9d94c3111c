(* Chaos harness: exact plan/case JSON round-trips, adversary
   transparency and duplicate-delivery safety, and the fuzz → shrink →
   replay pipeline on the seeded allocator bug. *)

module Rng = Pdq_engine.Rng
module Config = Pdq_core.Config
module Header = Pdq_core.Header
module Switch_port = Pdq_core.Switch_port
module Flow_list = Pdq_core.Flow_list
module Link = Pdq_net.Link
module Fault_plan = Pdq_faults.Fault_plan
module Runner = Pdq_transport.Runner
module Scenario = Pdq_exec.Scenario
module Task = Pdq_exec.Task
module Topology = Pdq_net.Topology
module Builder = Pdq_topo.Builder
module Fuzzer = Pdq_chaos.Fuzzer

(* ------------------------------------------------------------------ *)
(* Exact JSON round-trips (QCheck) *)

let gen_node = QCheck.Gen.int_bound 15
let gen_prob = QCheck.Gen.float_bound_inclusive 1.
let gen_span = QCheck.Gen.float_bound_inclusive 0.05

let gen_adversary_event =
  let open QCheck.Gen in
  oneof
    [
      map3
        (fun a b (p, hold) -> Fault_plan.Reorder { a; b; p; hold })
        gen_node gen_node (pair gen_prob gen_span);
      map3 (fun a b p -> Fault_plan.Duplicate { a; b; p }) gen_node gen_node
        gen_prob;
      map3 (fun a b p -> Fault_plan.Corrupt { a; b; p }) gen_node gen_node
        gen_prob;
      map3
        (fun a b max_delay -> Fault_plan.Jitter { a; b; max_delay })
        gen_node gen_node gen_span;
      map2 (fun a b -> Fault_plan.Clear { a; b }) gen_node gen_node;
      map2
        (fun switch skew -> Fault_plan.Clock_skew { switch; skew })
        gen_node
        (map (fun x -> x -. 2e-3) (float_bound_inclusive 4e-3));
    ]

let gen_fault_event =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun a b -> Fault_plan.Link_down { a; b }) gen_node gen_node;
      map2 (fun a b -> Fault_plan.Link_up { a; b }) gen_node gen_node;
      map3
        (fun a b model -> Fault_plan.Set_loss { a; b; model })
        gen_node gen_node
        (oneof
           [
             map (fun p -> Link.Bernoulli p) gen_prob;
             map
               (fun (p_gb, p_bg, loss_good, loss_bad) ->
                 Link.Gilbert { Link.p_gb; p_bg; loss_good; loss_bad })
               (quad gen_prob gen_prob gen_prob gen_prob);
             return Link.No_loss;
           ]);
      map (fun n -> Fault_plan.Switch_reboot n) gen_node;
    ]

let timed ev_gen = QCheck.Gen.(pair (float_bound_inclusive 5.) ev_gen)

let arb_adversary_plan =
  QCheck.make
    ~print:(fun p -> Fault_plan.to_json p)
    QCheck.Gen.(map Fault_plan.of_events
                  (list_size (0 -- 12) (timed gen_adversary_event)))

let arb_fault_plan =
  QCheck.make
    ~print:(fun p -> Fault_plan.to_json p)
    QCheck.Gen.(map Fault_plan.of_events
                  (list_size (0 -- 12) (timed gen_fault_event)))

let qcheck_adversary_roundtrip =
  QCheck.Test.make ~name:"adversary plan JSON round-trips exactly" ~count:300
    arb_adversary_plan (fun p ->
      match Fault_plan.of_json (Fault_plan.to_json p) with
      | Ok p' -> Fault_plan.events p' = Fault_plan.events p
      | Error _ -> false)

let qcheck_fault_roundtrip =
  QCheck.Test.make ~name:"fault plan JSON round-trips exactly" ~count:300
    arb_fault_plan (fun p ->
      match Fault_plan.of_json (Fault_plan.to_json p) with
      | Ok p' -> Fault_plan.events p' = Fault_plan.events p
      | Error _ -> false)

(* Stored plans and chaos reproducers stay valid: "gilbert-loss" and
   "clear-loss" events parse, print and re-serialize byte for byte. *)
let test_legacy_loss_events () =
  let json =
    "[{\"t\":0,\"ev\":\"gilbert-loss\",\"a\":1,\"b\":2,\"p_gb\":0.0025,\
     \"p_bg\":0.05,\"loss_good\":0,\"loss_bad\":1},\
     {\"t\":0.25,\"ev\":\"clear-loss\",\"a\":1,\"b\":2}]"
  in
  match Fault_plan.of_json json with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok plan ->
      Alcotest.(check string) "re-serializes identically" json
        (Fault_plan.to_json plan);
      Alcotest.(check (list string))
        "printed names"
        [ "gilbert-loss 1<->2"; "clear-loss 1<->2" ]
        (List.map
           (fun (_, ev) -> Format.asprintf "%a" Fault_plan.pp_event ev)
           (Fault_plan.events plan))

(* Adversary reproducers stay valid: every adversarial event encodes,
   parses, prints and re-serializes byte for byte. *)
let test_adversary_json_bytes () =
  let json =
    "[{\"t\":0,\"ev\":\"duplicate\",\"a\":1,\"b\":2,\"p\":0.5},\
     {\"t\":0.125,\"ev\":\"corrupt\",\"a\":2,\"b\":3,\"p\":0.1},\
     {\"t\":0.25,\"ev\":\"jitter\",\"a\":3,\"b\":4,\"max_delay\":0.0002},\
     {\"t\":0.25,\"ev\":\"clear\",\"a\":0,\"b\":1},\
     {\"t\":0.5,\"ev\":\"reorder\",\"a\":0,\"b\":1,\"p\":0.25,\"hold\":0.001},\
     {\"t\":1,\"ev\":\"clock-skew\",\"switch\":5,\"skew\":-0.0005}]"
  in
  let plan =
    Fault_plan.of_events
      [
        (0.5, Fault_plan.Reorder { a = 0; b = 1; p = 0.25; hold = 1e-3 });
        (0., Fault_plan.Duplicate { a = 1; b = 2; p = 0.5 });
        (0.125, Fault_plan.Corrupt { a = 2; b = 3; p = 0.1 });
        (0.25, Fault_plan.Jitter { a = 3; b = 4; max_delay = 2e-4 });
        (0.25, Fault_plan.Clear { a = 0; b = 1 });
        (1., Fault_plan.Clock_skew { switch = 5; skew = -5e-4 });
      ]
  in
  Alcotest.(check string) "encodes to the pinned bytes" json
    (Fault_plan.to_json plan);
  match Fault_plan.of_json json with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok parsed ->
      Alcotest.(check string) "re-serializes identically" json
        (Fault_plan.to_json parsed);
      Alcotest.(check (list string))
        "printed names"
        [
          "duplicate 1<->2 p=0.5";
          "corrupt 2<->3 p=0.1";
          "jitter 3<->4 max=0.0002s";
          "clear 0<->1";
          "reorder 0<->1 p=0.25 hold=0.001s";
          "clock-skew switch=5 skew=-0.0005s";
        ]
        (List.map
           (fun (_, ev) -> Format.asprintf "%a" Fault_plan.pp_event ev)
           (Fault_plan.events parsed))

(* Cases as the fuzzer itself draws them — nested plans included —
   must survive the counterexample-artifact round trip, and the
   checkpoint key must be a function of the JSON form alone. *)
let test_case_roundtrip () =
  let cases = Fuzzer.cases ~runs:12 ~seed:5 () in
  Alcotest.(check int) "campaign size" 12 (List.length cases);
  List.iter
    (fun c ->
      match Fuzzer.case_of_json (Fuzzer.case_to_json c) with
      | Error e -> Alcotest.failf "case_of_json: %s" e
      | Ok c' ->
          Alcotest.(check bool) "case round-trips exactly" true (c = c');
          Alcotest.(check string) "key stable" (Fuzzer.key c) (Fuzzer.key c'))
    cases

let test_case_of_json_strict () =
  (match Fuzzer.case_of_json "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Fuzzer.case_of_json "{\"protocol\":\"pdq\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated case"

(* Reproducers written while adversarial events had a plan of their
   own carry them in an "adversary" array: it merges into the plan by
   time, and the case re-serializes with every event under "faults". *)
let test_legacy_adversary_array () =
  let case faults adversary =
    Printf.sprintf
      "{\"protocol\":\"pdq\",\"topo\":\"tree\",\"pattern\":\"pairs\",\
       \"flows\":4,\"mean_bytes\":30000,\"deadlines\":false,\"seed\":7,\
       \"horizon\":0.25,\"faults\":[%s]%s}"
      faults adversary
  in
  let down = "{\"t\":0.1,\"ev\":\"link-down\",\"a\":0,\"b\":1}"
  and dup = "{\"t\":0,\"ev\":\"duplicate\",\"a\":0,\"b\":1,\"p\":0.5}" in
  match
    Fuzzer.case_of_json (case down (Printf.sprintf ",\"adversary\":[%s]" dup))
  with
  | Error e -> Alcotest.failf "case_of_json: %s" e
  | Ok c ->
      Alcotest.(check string) "one plan, sorted by time"
        (case (dup ^ "," ^ down) "")
        (Fuzzer.case_to_json c)

(* ------------------------------------------------------------------ *)
(* Adversary semantics *)

let base_case =
  {
    Fuzzer.protocol = "pdq";
    topo = "tree";
    pattern = "pairs";
    flows = 6;
    mean_bytes = 60_000;
    deadlines = true;
    seed = 11;
    horizon = 0.4;
    faults = Fault_plan.empty;
  }

let run_ok c =
  match Fuzzer.run_case c with
  | Ok ch -> ch
  | Error e -> Alcotest.failf "run_case: %s" e

let same_result (a : Runner.result) (b : Runner.result) =
  a.Runner.flows = b.Runner.flows
  && a.Runner.mean_fct = b.Runner.mean_fct
  && a.Runner.application_throughput = b.Runner.application_throughput
  && a.Runner.counters = b.Runner.counters
  && a.Runner.sim_end = b.Runner.sim_end

(* A duplicated SYN reaching the same port twice must not register the
   flow twice (the receiver-side guard for this is the Rx_buffer seq
   dedup; this is the switch-side guard). *)
let test_dup_syn_single_entry () =
  let port =
    Switch_port.create ~config:Config.full ~switch_id:7 ~link_rate:1e9
      ~init_rtt:1.5e-4 ()
  in
  let h () = Header.make ~rate:1e9 ~expected_tx_time:1e-3 ~rtt:1.5e-4 () in
  Switch_port.process_forward port (h ()) ~flow_id:1 ~now:0.;
  Switch_port.process_forward port (h ()) ~flow_id:1 ~now:1e-5;
  Alcotest.(check int) "one stored entry" 1
    (Flow_list.length (Switch_port.flow_list port));
  Alcotest.(check (list string)) "port consistent" []
    (Switch_port.invariant_errors port)

(* End to end: aggressive duplication on every cable of a healthy PDQ
   run must not trip any monitor — duplicates are deduplicated at the
   receiver and re-registration is idempotent at the switch. *)
let test_duplicate_storm_clean () =
  let cables, _, _ = Fuzzer.targets_of_case base_case in
  let c =
    {
      base_case with
      Fuzzer.faults =
        Fault_plan.of_events
          (List.map
             (fun (a, b) -> (0., Fault_plan.Duplicate { a; b; p = 0.5 }))
             cables);
    }
  in
  let ch = run_ok c in
  Alcotest.(check int) "no violations" 0
    (List.length ch.Scenario.violations);
  Alcotest.(check bool) "flows completed" true (ch.Scenario.result.Runner.completed > 0)

(* Plans are checked before anything runs: a non-finite time cannot be
   built, and a cable the case's topology lacks (the tree has no
   0<->2) fails [run_case] with an error naming it. *)
let test_bad_plans_rejected () =
  Alcotest.check_raises "non-finite time rejected"
    (Invalid_argument "Fault_plan.of_events: non-finite event time")
    (fun () ->
      ignore
        (Fault_plan.of_events
           [ (infinity, Fault_plan.Clear { a = 0; b = 1 }) ]));
  let rejects what c =
    match Fuzzer.run_case c with
    | Ok _ -> Alcotest.failf "%s: ran a plan on a missing cable" what
    | Error e ->
        Alcotest.(check string) what "Topology.cable: no cable 0<->2" e
  in
  rejects "fault plan"
    {
      base_case with
      Fuzzer.faults =
        Fault_plan.of_events [ (0., Fault_plan.Link_down { a = 0; b = 2 }) ];
    };
  rejects "adversarial event"
    {
      base_case with
      Fuzzer.faults =
        Fault_plan.of_events
          [ (0., Fault_plan.Duplicate { a = 0; b = 2; p = 0.5 }) ];
    }

(* An empty or inactive plan leaves a run unchanged. Over cases the
   fuzzer draws (their own plans set aside), four runs must agree bit
   for bit: no plan, a generator returning the empty plan, [Clear] on
   every cable and [Clear] on one cable. A [Clear] plan wraps links
   but activates no condition, and being adversarial it must not split
   the run's rng. Healthy fuzzer cases never draw from that rng, so a
   16-flow PDQ incast of 3 MB flows, whose probe backoff draws from it,
   joins them. *)
let test_inactive_plans_transparent () =
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  let clears cables =
    Fault_plan.of_events
      (List.map (fun (a, b) -> (0., Fault_plan.Clear { a; b })) cables)
  in
  List.iter
    (fun (c : Fuzzer.case) ->
      let run faults =
        Scenario.run
          (Scenario.make ~topo:(ok (Scenario.topo_of_string c.topo))
             ~seed:c.seed ~horizon:c.horizon ~faults
             ~workload:
               (Scenario.Synthetic
                  {
                    pattern = ok (Scenario.pattern_of_string c.pattern);
                    flows = c.flows;
                    sizes =
                      Scenario.Uniform_paper { mean_bytes = c.mean_bytes };
                    deadlines =
                      (if c.deadlines then
                         Scenario.Exp_deadlines { mean = 0.02; floor = 0.003 }
                       else Scenario.No_deadlines);
                  })
             (ok (Scenario.protocol_of_string c.protocol)))
      in
      let plan label f =
        run
          (Scenario.Fault_gen
             {
               label;
               plan = (fun ~seed:_ b -> f (Topology.cables b.Builder.topo));
             })
      in
      let base = run Scenario.No_faults in
      List.iter
        (fun (what, r) ->
          Alcotest.(check bool)
            (Format.asprintf "%a: %s" Fuzzer.pp_case c what)
            true (same_result base r))
        [
          ("empty plan", plan "empty" (fun _ -> Fault_plan.empty));
          ("clear on every cable", plan "clear all" clears);
          ( "clear on one cable",
            plan "clear one" (fun cs -> clears [ List.hd cs ]) );
        ])
    ({
       base_case with
       Fuzzer.protocol = "pdq";
       topo = "bottleneck";
       pattern = "aggregation";
       flows = 16;
       mean_bytes = 3_000_000;
       deadlines = false;
       horizon = 0.2;
     }
    :: Fuzzer.cases ~runs:8 ~seed:17 ())

let test_case_run_deterministic () =
  let cables, _, switches = Fuzzer.targets_of_case base_case in
  let rng = Rng.create 21 in
  let c =
    {
      base_case with
      Fuzzer.faults =
        Fault_plan.random rng ~cables ~switches ~until:base_case.Fuzzer.horizon
          ~intensity:0.5 ~count:6;
    }
  in
  let a = run_ok c and b = run_ok c in
  Alcotest.(check bool) "same case, same run" true
    (same_result a.Scenario.result b.Scenario.result);
  Alcotest.(check bool) "same violations" true
    (a.Scenario.violations = b.Scenario.violations)

(* ------------------------------------------------------------------ *)
(* Fuzz → shrink → replay *)

let test_campaign_deterministic_and_clean () =
  let run () = Fuzzer.fuzz ~runs:4 ~seed:9 () in
  let c1 = run () and c2 = run () in
  Alcotest.(check bool) "same cases" true (c1.Fuzzer.cases = c2.Fuzzer.cases);
  Alcotest.(check bool) "same verdicts" true
    (c1.Fuzzer.verdicts = c2.Fuzzer.verdicts);
  (match Fuzzer.first_violation c1 with
  | None -> ()
  | Some (i, _, inv) ->
      Alcotest.failf "healthy campaign violated %s in case %d" inv i);
  List.iter
    (function
      | Task.Ok _ -> ()
      | _ -> Alcotest.fail "campaign task did not complete")
    c1.Fuzzer.verdicts

let test_canary_found_shrunk_replayed () =
  let campaign =
    Fuzzer.fuzz ~runs:4 ~seed:3 ~protocols:[ "pdq-broken" ] ()
  in
  match Fuzzer.first_violation campaign with
  | None -> Alcotest.fail "fuzzer missed the seeded allocator bug"
  | Some (_, case, invariant) ->
      let s = Fuzzer.shrink ~max_runs:60 case ~invariant in
      Alcotest.(check string) "shrink holds the violation fixed" invariant
        s.Fuzzer.invariant;
      Alcotest.(check bool) "shrinker stayed in budget" true
        (s.Fuzzer.runs_used <= 60);
      let plan_size c = Fault_plan.length c.Fuzzer.faults in
      Alcotest.(check bool) "minimal is no larger" true
        (plan_size s.Fuzzer.minimal <= plan_size s.Fuzzer.original);
      (* The shrunk case must replay to the same violation from its
         JSON form — the artifact the CLI writes with --repro-out. *)
      let replayed =
        match Fuzzer.case_of_json (Fuzzer.case_to_json s.Fuzzer.minimal) with
        | Ok c -> c
        | Error e -> Alcotest.failf "repro did not parse: %s" e
      in
      Alcotest.(check (option string)) "replay reproduces" (Some invariant)
        (Fuzzer.signature (run_ok replayed))

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "chaos.plan_json",
      qsuite [ qcheck_fault_roundtrip; qcheck_adversary_roundtrip ]
      @ [
          Alcotest.test_case "legacy loss events re-serialize" `Quick
            test_legacy_loss_events;
          Alcotest.test_case "adversary events re-serialize" `Quick
            test_adversary_json_bytes;
          Alcotest.test_case "fuzzer cases round-trip" `Quick
            test_case_roundtrip;
          Alcotest.test_case "case_of_json is strict" `Quick
            test_case_of_json_strict;
          Alcotest.test_case "adversary array merges into the plan" `Quick
            test_legacy_adversary_array;
        ] );
    ( "chaos.adversary",
      [
        Alcotest.test_case "dup SYN registers once" `Quick
          test_dup_syn_single_entry;
        Alcotest.test_case "duplicate storm stays clean" `Quick
          test_duplicate_storm_clean;
        Alcotest.test_case "empty or inactive plans are transparent" `Quick
          test_inactive_plans_transparent;
        Alcotest.test_case "case runs are deterministic" `Quick
          test_case_run_deterministic;
        Alcotest.test_case "bad plans rejected before the run" `Quick
          test_bad_plans_rejected;
      ] );
    ( "chaos.fuzzer",
      [
        Alcotest.test_case "healthy campaign deterministic and clean" `Quick
          test_campaign_deterministic_and_clean;
        Alcotest.test_case "canary found, shrunk, replayed" `Quick
          test_canary_found_shrunk_replayed;
      ] );
  ]
