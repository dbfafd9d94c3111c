(* Integration tests: full packet-level simulations on small
   topologies, checking protocol behaviour end to end. *)

module Units = Pdq_engine.Units
module Sim = Pdq_engine.Sim
module Topology = Pdq_net.Topology
module Builder = Pdq_topo.Builder
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Config = Pdq_core.Config

let kb = Units.kbyte

(* One simulated transfer takes ~size/1Gbps; generous horizon. *)
let opts = { Runner.default_options with Runner.horizon = 5. }

let spec ?deadline ?(start = 0.) ~src ~dst ~size () =
  { Context.src; dst; size; deadline; start }

let run_single_bottleneck ?(senders = 4) ?(options = opts) protocol specs_of =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders () in
  let result =
    Runner.execute ~options ~topo:built.Builder.topo protocol
      (specs_of built.Builder.hosts rx)
  in
  result

let fct_exn (r : Runner.result) i =
  match r.Runner.flows.(i).Runner.fct with
  | Some f -> f
  | None -> Alcotest.failf "flow %d did not complete" i

(* ------------------------------------------------------------------ *)
(* Single-flow sanity for every protocol *)

let single_flow_completes protocol () =
  let size = kb 500. in
  let r =
    run_single_bottleneck protocol (fun hosts rx ->
        [ spec ~src:hosts.(0) ~dst:rx ~size () ])
  in
  Alcotest.(check int) "completed" 1 r.Runner.completed;
  let fct = fct_exn r 0 in
  (* Raw transmission of 500 KB at 1 Gbps is 4 ms; allow protocol
     overhead (handshake, headers) but require sane efficiency. *)
  Alcotest.(check bool)
    (Printf.sprintf "fct %.4f in (0.004, 0.02)" fct)
    true
    (fct > 0.004 && fct < 0.02)

(* ------------------------------------------------------------------ *)
(* PDQ behaviour *)

let test_pdq_sjf_ordering () =
  (* Two simultaneous flows of different size: PDQ must preempt so the
     short one finishes first, at roughly its solo completion time. *)
  let short = kb 100. and long = kb 1000. in
  let r =
    run_single_bottleneck (Runner.Pdq Config.full) (fun hosts rx ->
        [
          spec ~src:hosts.(0) ~dst:rx ~size:long ();
          spec ~src:hosts.(1) ~dst:rx ~size:short ();
        ])
  in
  Alcotest.(check int) "both completed" 2 r.Runner.completed;
  let fct_long = fct_exn r 0 and fct_short = fct_exn r 1 in
  Alcotest.(check bool)
    (Printf.sprintf "short (%.4f) < long (%.4f)" fct_short fct_long)
    true (fct_short < fct_long);
  (* The short flow should be barely slowed by the long one. *)
  Alcotest.(check bool)
    (Printf.sprintf "short flow near solo time (%.4f)" fct_short)
    true (fct_short < 0.004);
  (* Work conservation: total time ~ sum of raw times (8.8 ms) plus
     modest overhead. *)
  Alcotest.(check bool)
    (Printf.sprintf "long finishes near 9.6ms (%.4f)" fct_long)
    true (fct_long < 0.015)

let test_pdq_preemption_of_running_flow () =
  (* A long flow running alone is preempted by a short flow arriving
     later: the short flow's FCT stays near solo. *)
  let r =
    run_single_bottleneck (Runner.Pdq Config.full) (fun hosts rx ->
        [
          spec ~src:hosts.(0) ~dst:rx ~size:(kb 2000.) ();
          spec ~src:hosts.(1) ~dst:rx ~size:(kb 50.) ~start:0.005 ();
        ])
  in
  Alcotest.(check int) "both completed" 2 r.Runner.completed;
  let fct_short = fct_exn r 1 in
  Alcotest.(check bool)
    (Printf.sprintf "preempting short flow is fast (%.4f)" fct_short)
    true (fct_short < 0.003)

let test_pdq_deadline_met () =
  let r =
    run_single_bottleneck (Runner.Pdq Config.full) (fun hosts rx ->
        [ spec ~src:hosts.(0) ~dst:rx ~size:(kb 100.) ~deadline:0.02 () ])
  in
  Alcotest.(check bool) "met deadline" true r.Runner.flows.(0).Runner.met_deadline;
  Alcotest.(check bool) "AT = 1" true (r.Runner.application_throughput = 1.)

let test_pdq_early_termination () =
  (* Two flows, same deadline, only one can make it: Early Termination
     should kill exactly one instead of missing both. *)
  let size = kb 1200. in
  (* Raw time ~9.6 ms each; deadline 12 ms fits one flow only. *)
  let r =
    run_single_bottleneck (Runner.Pdq Config.full) (fun hosts rx ->
        [
          spec ~src:hosts.(0) ~dst:rx ~size ~deadline:0.012 ();
          spec ~src:hosts.(1) ~dst:rx ~size ~deadline:0.012 ();
        ])
  in
  let met =
    Array.to_list r.Runner.flows
    |> List.filter (fun (f : Runner.flow_result) -> f.Runner.met_deadline)
    |> List.length
  in
  let terminated =
    Array.to_list r.Runner.flows
    |> List.filter (fun (f : Runner.flow_result) -> f.Runner.terminated)
    |> List.length
  in
  Alcotest.(check int) "one flow meets its deadline" 1 met;
  Alcotest.(check bool) "the other was early-terminated" true (terminated >= 1)

let test_pdq_variants_all_complete () =
  List.iter
    (fun config ->
      let r =
        run_single_bottleneck (Runner.Pdq config) (fun hosts rx ->
            [
              spec ~src:hosts.(0) ~dst:rx ~size:(kb 200.) ();
              spec ~src:hosts.(1) ~dst:rx ~size:(kb 300.) ();
              spec ~src:hosts.(2) ~dst:rx ~size:(kb 400.) ();
            ])
      in
      Alcotest.(check int)
        (Printf.sprintf "%s completes all" (Config.name config))
        3 r.Runner.completed)
    [ Config.basic; Config.es; Config.es_et; Config.full ]

let test_pdq_resilient_to_loss () =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders:2 () in
  (* Standing 2% Bernoulli loss on both directions of the bottleneck
     (switch 0 <-> receiver) cable. *)
  let loss =
    Pdq_faults.Fault_plan.of_events
      [
        ( 0.,
          Pdq_faults.Fault_plan.Set_loss
            { a = 0; b = rx; model = Pdq_net.Link.Bernoulli 0.02 } );
      ]
  in
  let options = { opts with Runner.faults = Some loss } in
  let r =
    Runner.execute ~options ~topo:built.Builder.topo (Runner.Pdq Config.full)
      [
        spec ~src:built.Builder.hosts.(0) ~dst:rx ~size:(kb 300.) ();
        spec ~src:built.Builder.hosts.(1) ~dst:rx ~size:(kb 300.) ();
      ]
  in
  Alcotest.(check bool) "loss fired" true
    (Option.value ~default:0 (List.assoc_opt "drop.loss" r.Runner.counters) > 0);
  Alcotest.(check int) "completes despite 2% loss" 2 r.Runner.completed

(* ------------------------------------------------------------------ *)
(* Baselines *)

let test_rcp_fair_sharing () =
  (* Two identical simultaneous flows finish at roughly the same time,
     at about twice the solo duration (processor sharing). *)
  let size = kb 500. in
  let r =
    run_single_bottleneck Runner.Rcp (fun hosts rx ->
        [
          spec ~src:hosts.(0) ~dst:rx ~size ();
          spec ~src:hosts.(1) ~dst:rx ~size ();
        ])
  in
  Alcotest.(check int) "both completed" 2 r.Runner.completed;
  let f0 = fct_exn r 0 and f1 = fct_exn r 1 in
  Alcotest.(check bool)
    (Printf.sprintf "similar completion times (%.4f vs %.4f)" f0 f1)
    true
    (abs_float (f0 -. f1) < 0.25 *. max f0 f1);
  Alcotest.(check bool)
    (Printf.sprintf "both near 2x solo (%.4f)" (max f0 f1))
    true
    (max f0 f1 > 0.007 && max f0 f1 < 0.02)

let test_pdq_beats_rcp_on_mean_fct () =
  (* The headline claim on a small aggregation workload. *)
  let sizes = [ 100.; 200.; 400.; 800. ] in
  let mk proto =
    run_single_bottleneck proto (fun hosts rx ->
        List.mapi (fun i s -> spec ~src:hosts.(i) ~dst:rx ~size:(kb s) ()) sizes)
  in
  let pdq = mk (Runner.Pdq Config.full) and rcp = mk Runner.Rcp in
  Alcotest.(check int) "pdq all done" 4 pdq.Runner.completed;
  Alcotest.(check int) "rcp all done" 4 rcp.Runner.completed;
  Alcotest.(check bool)
    (Printf.sprintf "PDQ mean FCT %.4f < RCP %.4f" pdq.Runner.mean_fct
       rcp.Runner.mean_fct)
    true
    (pdq.Runner.mean_fct < rcp.Runner.mean_fct)

let test_d3_deadline_flow () =
  let r =
    run_single_bottleneck Runner.D3 (fun hosts rx ->
        [ spec ~src:hosts.(0) ~dst:rx ~size:(kb 100.) ~deadline:0.05 () ])
  in
  Alcotest.(check int) "completed" 1 r.Runner.completed;
  Alcotest.(check bool) "met deadline" true r.Runner.flows.(0).Runner.met_deadline

let test_d3_arrival_order_dependence () =
  (* Figure 1d: an earlier large-deadline flow reserves bandwidth and
     starves a later, tighter flow. Sizes/deadlines scaled from the
     motivating example (1 unit = 1 MByte at 1 Gbps => 8 ms). *)
  let mb x = Units.mbyte x in
  let r =
    run_single_bottleneck Runner.D3 (fun hosts rx ->
        [
          (* fB first: size 2, deadline 4 units. *)
          spec ~src:hosts.(0) ~dst:rx ~size:(mb 2.) ~deadline:0.032 ();
          (* fA second: size 1, deadline 1 unit - D3 should miss it. *)
          spec ~src:hosts.(1) ~dst:rx ~size:(mb 1.) ~deadline:0.008 ~start:1e-4 ();
          (* fC: size 3, deadline 6 units. *)
          spec ~src:hosts.(2) ~dst:rx ~size:(mb 3.) ~deadline:0.048 ~start:2e-4 ();
        ])
  in
  Alcotest.(check bool) "D3 misses the tight later deadline" false
    r.Runner.flows.(1).Runner.met_deadline

let test_pdq_fig1_all_deadlines_met () =
  (* Same scenario under PDQ: the EDF schedule meets all three
     deadlines. The fluid-model deadlines of Fig. 1 (8/32/48 ms) get
     ~25% slack for real header overhead, handshakes and the rate
     controller's queue-draining margin. *)
  let mb x = Units.mbyte x in
  let r =
    run_single_bottleneck (Runner.Pdq Config.full) (fun hosts rx ->
        [
          spec ~src:hosts.(0) ~dst:rx ~size:(mb 2.) ~deadline:0.040 ();
          spec ~src:hosts.(1) ~dst:rx ~size:(mb 1.) ~deadline:0.010 ~start:1e-4 ();
          spec ~src:hosts.(2) ~dst:rx ~size:(mb 3.) ~deadline:0.060 ~start:2e-4 ();
        ])
  in
  Array.iteri
    (fun i (f : Runner.flow_result) ->
      Alcotest.(check bool) (Printf.sprintf "flow %d meets deadline" i) true
        f.Runner.met_deadline)
    r.Runner.flows

let test_pdq_size_estimation_mode () =
  (* §5.6 at packet level: senders advertise a running size estimate
     instead of the true remaining size. Everything must still
     complete, and since the estimate grows with bytes sent, flows of
     very different size still roughly serialize short-first. *)
  let r =
    run_single_bottleneck
      (Runner.Pdq_estimated { config = Config.full; quantum = 50_000 })
      (fun hosts rx ->
        [
          spec ~src:hosts.(0) ~dst:rx ~size:(kb 800.) ();
          spec ~src:hosts.(1) ~dst:rx ~size:(kb 60.) ();
        ])
  in
  Alcotest.(check int) "both complete" 2 r.Runner.completed;
  let fct_long = fct_exn r 0 and fct_short = fct_exn r 1 in
  Alcotest.(check bool)
    (Printf.sprintf "short-ish first (%.4f < %.4f)" fct_short fct_long)
    true (fct_short < fct_long)

let test_tcp_incast_degrades () =
  (* Many synchronized small flows into one receiver: TCP suffers;
     it should still eventually complete everything. *)
  let n = 8 in
  let r =
    run_single_bottleneck ~senders:n Runner.Tcp (fun hosts rx ->
        List.init n (fun i -> spec ~src:hosts.(i) ~dst:rx ~size:(kb 64.) ()))
  in
  Alcotest.(check int) "all complete eventually" n r.Runner.completed

(* ------------------------------------------------------------------ *)
(* M-PDQ *)

let test_mpdq_completes_on_bcube () =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:2 ~k:3 () in
  let hosts = built.Builder.hosts in
  let r =
    Runner.execute ~options:opts ~topo:built.Builder.topo
      (Runner.mpdq ~subflows:3 ())
      [ spec ~src:hosts.(0) ~dst:hosts.(15) ~size:(kb 500.) () ]
  in
  Alcotest.(check int) "completed" 1 r.Runner.completed

let test_mpdq_multiple_flows () =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:2 ~k:3 () in
  let hosts = built.Builder.hosts in
  let r =
    Runner.execute ~options:opts ~topo:built.Builder.topo
      (Runner.mpdq ~subflows:4 ())
      [
        spec ~src:hosts.(0) ~dst:hosts.(15) ~size:(kb 300.) ();
        spec ~src:hosts.(3) ~dst:hosts.(12) ~size:(kb 300.) ();
        spec ~src:hosts.(5) ~dst:hosts.(10) ~size:(kb 300.) ();
      ]
  in
  Alcotest.(check int) "all completed" 3 r.Runner.completed

(* ------------------------------------------------------------------ *)
(* Cross-topology smoke *)

let test_pdq_on_tree_patterns () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let hosts = built.Builder.hosts in
  let n = Array.length hosts in
  (* Stride(1) permutation across the tree. *)
  let specs =
    List.init n (fun i ->
        spec ~src:hosts.(i) ~dst:hosts.((i + 1) mod n) ~size:(kb 100.) ())
  in
  let r =
    Runner.execute ~options:opts ~topo:built.Builder.topo (Runner.Pdq Config.full)
      specs
  in
  Alcotest.(check int) "all stride flows complete" n r.Runner.completed

let test_determinism () =
  let run_once () =
    let r =
      run_single_bottleneck (Runner.Pdq Config.full) (fun hosts rx ->
          [
            spec ~src:hosts.(0) ~dst:rx ~size:(kb 150.) ();
            spec ~src:hosts.(1) ~dst:rx ~size:(kb 250.) ();
          ])
    in
    Array.to_list (Array.map (fun (f : Runner.flow_result) -> f.Runner.fct) r.Runner.flows)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* A source route is checked when it is pinned, not at its first hop. *)
let test_non_adjacent_route_rejected () =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders:2 () in
  let ctx =
    Context.create ~sim ~topo:built.Builder.topo
      ~rng:(Pdq_engine.Rng.create 0) ~init_rtt:2e-4 ()
  in
  let h0 = built.Builder.hosts.(0) and h1 = built.Builder.hosts.(1) in
  let path = Context.register_route ctx ~id:0 ~src:h0 ~dst:rx ~choice:0 in
  Context.register_route_nodes ctx ~id:1 path;
  Alcotest.(check (array int)) "adjacent path pinned" path (Context.route ctx 1);
  (match Context.register_route_nodes ctx ~id:2 [| h0; h1 |] with
  | () -> Alcotest.fail "non-adjacent hosts accepted"
  | exception Invalid_argument _ -> ());
  match Context.route ctx 2 with
  | _ -> Alcotest.fail "rejected route was pinned"
  | exception Failure _ -> ()

let suites =
  [
    ( "transport.single_flow",
      [
        Alcotest.test_case "PDQ(Full)" `Quick
          (single_flow_completes (Runner.Pdq Config.full));
        Alcotest.test_case "PDQ(Basic)" `Quick
          (single_flow_completes (Runner.Pdq Config.basic));
        Alcotest.test_case "RCP" `Quick (single_flow_completes Runner.Rcp);
        Alcotest.test_case "D3" `Quick (single_flow_completes Runner.D3);
        Alcotest.test_case "TCP" `Quick (single_flow_completes Runner.Tcp);
      ] );
    ( "transport.pdq",
      [
        Alcotest.test_case "SJF ordering" `Quick test_pdq_sjf_ordering;
        Alcotest.test_case "preemption mid-flight" `Quick
          test_pdq_preemption_of_running_flow;
        Alcotest.test_case "deadline met" `Quick test_pdq_deadline_met;
        Alcotest.test_case "early termination" `Quick test_pdq_early_termination;
        Alcotest.test_case "all variants complete" `Quick
          test_pdq_variants_all_complete;
        Alcotest.test_case "resilient to loss" `Quick test_pdq_resilient_to_loss;
        Alcotest.test_case "Fig1: PDQ meets all deadlines" `Quick
          test_pdq_fig1_all_deadlines_met;
        Alcotest.test_case "size-estimation mode (5.6)" `Quick
          test_pdq_size_estimation_mode;
      ] );
    ( "transport.baselines",
      [
        Alcotest.test_case "RCP fair sharing" `Quick test_rcp_fair_sharing;
        Alcotest.test_case "PDQ beats RCP mean FCT" `Quick
          test_pdq_beats_rcp_on_mean_fct;
        Alcotest.test_case "D3 deadline flow" `Quick test_d3_deadline_flow;
        Alcotest.test_case "D3 arrival-order pathology (Fig 1d)" `Quick
          test_d3_arrival_order_dependence;
        Alcotest.test_case "TCP incast completes" `Quick test_tcp_incast_degrades;
      ] );
    ( "transport.mpdq",
      [
        Alcotest.test_case "completes on BCube" `Quick test_mpdq_completes_on_bcube;
        Alcotest.test_case "multiple flows" `Quick test_mpdq_multiple_flows;
      ] );
    ( "transport.misc",
      [
        Alcotest.test_case "stride on tree" `Quick test_pdq_on_tree_patterns;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "non-adjacent source route rejected" `Quick
          test_non_adjacent_route_rejected;
      ] );
  ]
