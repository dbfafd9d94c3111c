(* Tests for pdq_experiments: workload construction, the capacity
   binary search, and cheap end-to-end smoke checks of the figure
   drivers (shapes, not absolute values). *)

module Common = Pdq_experiments.Common
module Fig1 = Pdq_experiments.Fig1
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Builder = Pdq_topo.Builder
module Sim = Pdq_engine.Sim

let test_fig1_matches_paper () =
  let t = Fig1.completion_table () in
  (* Row 0 = fair sharing, last cell = mean FCT 4.67; row 1 = SJF 3.33. *)
  let last row = List.nth row (List.length row - 1) in
  Alcotest.(check string) "fair mean" "4.67" (last (List.nth t.Common.rows 0));
  Alcotest.(check string) "sjf mean" "3.33" (last (List.nth t.Common.rows 1));
  let d = Fig1.deadline_table () in
  Alcotest.(check string) "EDF meets 3" "3" (last (List.nth d.Common.rows 1))

let test_aggregation_workload () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let hosts = built.Builder.hosts in
  let wl =
    Common.aggregation_workload ~seed:1 ~hosts ~receiver:hosts.(0) ~flows:10 ()
  in
  Alcotest.(check int) "10 specs" 10 (List.length wl.Common.specs);
  Alcotest.(check int) "10 jobs" 10 (List.length wl.Common.jobs);
  List.iter
    (fun (s : Context.flow_spec) ->
      Alcotest.(check int) "to the aggregator" hosts.(0) s.Context.dst;
      Alcotest.(check bool) "within paper interval" true
        (s.Context.size >= 2_000 && s.Context.size <= 198_000);
      match s.Context.deadline with
      | Some d -> Alcotest.(check bool) "floor 3ms" true (d >= 0.003)
      | None -> Alcotest.fail "expected a deadline")
    wl.Common.specs

let test_workload_deterministic () =
  let build () =
    let sim = Sim.create () in
    let built = Builder.single_rooted_tree ~sim () in
    let hosts = built.Builder.hosts in
    (Common.aggregation_workload ~seed:5 ~hosts ~receiver:hosts.(0) ~flows:6 ())
      .Common.specs
  in
  Alcotest.(check bool) "same seed, same workload" true (build () = build ())

let test_search_max_flows () =
  (* Monotone step function: passes up to 13. *)
  let f n = if n <= 13 then 1. else 0.5 in
  Alcotest.(check int) "finds 13" 13
    (Common.search_max_flows ~hi:64 ~target:0.99 f);
  Alcotest.(check int) "all pass -> hi" 64
    (Common.search_max_flows ~hi:64 ~target:0.99 (fun _ -> 1.));
  Alcotest.(check int) "none pass -> 0" 0
    (Common.search_max_flows ~hi:64 ~target:0.99 (fun _ -> 0.))

let test_grid_order () =
  let rows = [ "a"; "b"; "c" ] and cols = [ 10; 20 ] and seeds = [ 3; 1; 2 ] in
  let grid jobs =
    Common.grid ~jobs ~seeds ~run:(fun r c s -> (r, c, s)) ~cell:Fun.id rows
      cols
  in
  let g = grid 1 in
  Alcotest.(check (list int)) "rows x cols" [ 2; 2; 2 ] (List.map List.length g);
  let expected =
    List.map
      (fun r -> List.map (fun c -> List.map (fun s -> (r, c, s)) seeds) cols)
      rows
  in
  let cells = Alcotest.(list (list (list (triple string int int)))) in
  Alcotest.check cells "row-major, each cell's seeds in the order given"
    expected g;
  Alcotest.check cells "jobs:1 = jobs:2" g (grid 2)

let test_optimal_bounds () =
  let at = Common.optimal_aggregation_throughput ~seeds:[ 1 ] ~flows:3 () in
  Alcotest.(check bool) "3 flows always schedulable-ish" true (at > 0.6);
  let at25 = Common.optimal_aggregation_throughput ~seeds:[ 1 ] ~flows:25 () in
  Alcotest.(check bool) "monotone-ish decline" true (at25 <= at +. 1e-9)

let test_pdq_tracks_optimal_small () =
  (* The end-to-end sanity of Fig 3a at a light load point: PDQ meets
     everything the optimal scheduler can. *)
  let optimal = Common.optimal_aggregation_throughput ~seeds:[ 1 ] ~flows:3 () in
  let pdq =
    Common.run_aggregation ~seeds:[ 1 ] ~flows:3
      (Runner.Pdq Pdq_core.Config.full) (fun r ->
        r.Runner.application_throughput)
  in
  Alcotest.(check bool)
    (Printf.sprintf "PDQ %.2f close to optimal %.2f" pdq optimal)
    true
    (pdq >= optimal -. 0.34)

let test_fig6_dynamics_shape () =
  let t = Pdq_experiments.Dynamics.fig6 () in
  (* Five flows all complete, in criticality (size) order. *)
  Alcotest.(check int) "five completions" 5
    (List.length t.Pdq_experiments.Dynamics.completions);
  let times = List.map snd t.Pdq_experiments.Dynamics.completions in
  Alcotest.(check bool) "completion order follows criticality" true
    (List.sort compare times = times);
  (* Near-perfect utilization while flows are active (bins 2..30). *)
  let u = t.Pdq_experiments.Dynamics.utilization in
  let busy = Array.sub u 2 28 in
  let mean_util =
    Array.fold_left (fun a (_, v) -> a +. v) 0. busy /. 28.
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean utilization %.3f > 0.9" mean_util)
    true (mean_util > 0.9);
  (* Queue stays small (well under ten packets on average). *)
  let q = t.Pdq_experiments.Dynamics.queue_pkts in
  let mean_q =
    Array.fold_left (fun a (_, v) -> a +. v) 0. q /. float_of_int (Array.length q)
  in
  Alcotest.(check bool) (Printf.sprintf "mean queue %.2f pkts" mean_q) true
    (mean_q < 10.)

let test_fig7_burst_shape () =
  let t = Pdq_experiments.Dynamics.fig7 () in
  (* All 50 shorts complete; the long flow completes too. *)
  Alcotest.(check int) "51 completions" 51
    (List.length t.Pdq_experiments.Dynamics.completions);
  (* During the burst (10-20ms) utilization stays high. *)
  let u = t.Pdq_experiments.Dynamics.utilization in
  let burst = Array.sub u 11 8 in
  let mean_util = Array.fold_left (fun a (_, v) -> a +. v) 0. burst /. 8. in
  Alcotest.(check bool)
    (Printf.sprintf "utilization during burst %.3f" mean_util)
    true (mean_util > 0.85)

(* Golden table digests: each {!Pdq_experiments.Registry} entry is
   pinned by the md5 of the text it prints, which is what
   [bench/main.exe --only T] prints before its "[T done" line, at each
   worker-domain count the registry pins it at: one digest for all
   counts pins the values and their independence from the count. Slow
   entries run only under PDQ_GOLDEN_SLOW=1:
   PDQ_GOLDEN_SLOW=1 dune exec test/test_main.exe -- test experiments.golden.slow
   The fidelity dump (bench --fidelity-dump) is pinned the same way. An
   intended output change refreshes the digest and says which one
   moved and why. *)

module E = Pdq_experiments
module Registry = Pdq_experiments.Registry
module Scenario = Pdq_exec.Scenario

let text_digest print =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  print ppf;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents b))

let digests =
  [
    ("fig1", "30b03ed9a4ef3653a429730521e5ba6c");
    ("fig3a", "27bb7f1f064e44f1a1f46b98299883ad");
    ("fig3b", "49dd83c8c32517f69649bf791312729f");
    ("fig3c", "3d4c9db82bf69f883cb76f027927b7c8");
    ("fig3d", "b751f31b0a935d667cbf3c8f07cc0e5f");
    ("fig3e", "8f063b8aa4365fab0dc56a8c7a569188");
    ("fig4a", "15aed4e698c0eb71dc3b900372378cc3");
    ("fig4b", "4457c79889f241d36f8c79e1e5acd4c2");
    ("fig5a", "c65ff9d80d7660551a95097edb8baf91");
    ("fig5b", "c00f6fa1512174894e376e614a96734e");
    ("fig5c", "27738f00f4acb0270b8c76945b449661");
    ("fig6", "27ac86c106d5f658c2ca0df38b6cdedc");
    ("fig7", "1518b4d49de27f8a833d45a51cbe7a0d");
    ("fig8a", "71e8a70d6739af5f10ce4521eae32032");
    ("fig8b", "61a21a70bcd7a0b5895e97834cbf253d");
    ("fig8c", "31b8b0cd5dd45af2c6bd69e153dca2dc");
    ("fig8d", "963870808f46abbc414823e0a139a3de");
    ("fig8e", "093598cbf2e6b653e0f175d6e5d79ac1");
    ("fig9", "595ba872b20da2d96319a435ce571b4f");
    ("fig10", "5638bd64adb5ddbfa63aba10af6cb9a4");
    ("fig11a", "84e9f7250504a0ca1b8c841522f476cb");
    ("fig11bc", "508d155bc93094426dbe349fc59f66b0");
    ("fig12", "50a72ab56dede856172efcd94c575e6f");
    ("ablation", "c507c3fbad12d6568d82335bbbe74c95");
    ("forensics", "8cda754236b8f07c844ebac6330c4bd0");
    ("apps", "b1e3a25353a497743e4390029731a851");
    ("chaos", "6f25533d44d4bb01a63f32b412312f2d");
    ("resilience", "8efcd54150ae086de3fd9954b9dbef83");
  ]

let check_digest expect jobs_list print =
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs:%d" jobs)
        expect
        (text_digest (print ~jobs)))
    jobs_list

let test_golden_table (e : Registry.entry) () =
  check_digest
    (Option.value (List.assoc_opt e.name digests) ~default:"(no digest)")
    (Registry.pinned_jobs e)
    (fun ~jobs ppf ->
      List.iter (Common.pp_table ppf) (e.render ~jobs:(Some jobs) ~quick:true))

let test_golden_fidelity_dump () =
  check_digest "5d83f2bfbb618e7b9704a46289fccfa0" [ 1; 2 ] (fun ~jobs ->
      E.Fidelity.dump ~jobs)

(* Every table is pinned: the registry and the digests name the same
   tables, each once. *)
let test_every_table_pinned () =
  let sorted names = List.sort compare names in
  Alcotest.(check (list string))
    "digest names = registry names"
    (sorted (List.map (fun (e : Registry.entry) -> e.name) Registry.all))
    (sorted (List.map fst digests))

let golden_table_cases cost speed =
  List.filter (fun (e : Registry.entry) -> e.cost = cost) Registry.all
  |> List.map (fun (e : Registry.entry) ->
         Alcotest.test_case ("golden table: " ^ e.name) speed
           (test_golden_table e))

(* [Scenario.build]'s specs for a synthetic workload of every pattern:
   30 flows cycle each pattern's pairs on the 12-server tree. *)
let golden_specs =
  [
    ("aggregation", Scenario.Aggregation, "8c82bec2c604fa30b7e00987bdb2e4d1");
    ("stride", Scenario.Stride 1, "0adcff7c9cbff9cfe047c6c32b2e5db2");
    ("staggered", Scenario.Staggered 0.7, "b59d440d6149a9881d022266333140e1");
    ( "permutation",
      Scenario.Random_permutation,
      "79287e3fe37a2d27d305cde9ab379ed8" );
    ("pairs", Scenario.Random_pairs, "1f4a01d670cc4e6f722edd6389f39744");
  ]

let test_golden_specs (_, pattern, expect) () =
  let scenario =
    Scenario.make ~seed:7
      ~workload:
        (Scenario.Synthetic
           {
             pattern;
             flows = 30;
             sizes = Scenario.Uniform_paper { mean_bytes = 100_000 };
             deadlines = Scenario.Exp_deadlines { mean = 0.02; floor = 3e-3 };
           })
      (Runner.Pdq Pdq_core.Config.full)
  in
  let _, specs, _ = Scenario.build scenario in
  Alcotest.(check string) "specs" expect
    (text_digest (fun ppf ->
         List.iter
           (fun (s : Context.flow_spec) ->
             Format.fprintf ppf "%d %d %d %s %h@." s.Context.src s.Context.dst
               s.Context.size
               (match s.Context.deadline with
               | Some d -> Printf.sprintf "%h" d
               | None -> "-")
               s.Context.start)
           specs))

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "Fig1 matches paper" `Quick test_fig1_matches_paper;
        Alcotest.test_case "aggregation workload" `Quick test_aggregation_workload;
        Alcotest.test_case "workload determinism" `Quick test_workload_deterministic;
        Alcotest.test_case "capacity search" `Quick test_search_max_flows;
        Alcotest.test_case "grid order" `Quick test_grid_order;
        Alcotest.test_case "optimal bounds" `Quick test_optimal_bounds;
        Alcotest.test_case "PDQ tracks optimal (light load)" `Quick
          test_pdq_tracks_optimal_small;
        Alcotest.test_case "Fig6 dynamics shape" `Slow test_fig6_dynamics_shape;
        Alcotest.test_case "Fig7 burst shape" `Slow test_fig7_burst_shape;
      ] );
    ( "experiments.golden",
      golden_table_cases Registry.Quick `Quick
      @ [
          Alcotest.test_case "golden table: fidelity dump" `Quick
            test_golden_fidelity_dump;
          Alcotest.test_case "every table pinned" `Quick
            test_every_table_pinned;
        ]
      @ List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case ("golden specs: " ^ name) `Quick
              (test_golden_specs g))
          golden_specs );
  ]
  @
  if Sys.getenv_opt "PDQ_GOLDEN_SLOW" = Some "1" then
    [ ("experiments.golden.slow", golden_table_cases Registry.Slow `Slow) ]
  else []
