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
      ~rng:(Pdq_engine.Rng.create 0) ()
  in
  let h0 = built.Builder.hosts.(0) and h1 = built.Builder.hosts.(1) in
  Context.register_route ctx ~id:0 ~src:h0 ~dst:rx ~choice:0;
  let links = Context.route ctx 0 in
  let src l = Pdq_net.Link.src (Topology.link built.Builder.topo l) in
  Context.register_route_nodes ctx ~id:1
    (Array.append (Array.map src links) [| rx |]);
  Alcotest.(check (array int)) "adjacent path pinned" links
    (Context.route ctx 1);
  (match Context.register_route_nodes ctx ~id:2 [| h0; h1 |] with
  | () -> Alcotest.fail "non-adjacent hosts accepted"
  | exception Invalid_argument _ -> ());
  match Context.route ctx 2 with
  | _ -> Alcotest.fail "rejected route was pinned"
  | exception Failure _ -> ()

(* A flow to its own source is rejected before it takes a flow id,
   joins [flows] or counts as open. *)
let test_self_flow_rejected () =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders:2 () in
  let ctx =
    Context.create ~sim ~topo:built.Builder.topo
      ~rng:(Pdq_engine.Rng.create 0) ()
  in
  let h0 = built.Builder.hosts.(0) in
  let f0 = Context.add_flow ctx (spec ~src:h0 ~dst:rx ~size:(kb 10.) ()) in
  Alcotest.check_raises "src = dst"
    (Invalid_argument
       (Printf.sprintf "Context.add_flow: flow from node %d to itself" h0))
    (fun () -> ignore (Context.add_flow ctx (spec ~src:h0 ~dst:h0 ~size:(kb 10.) ())));
  Alcotest.(check int) "flows unchanged" 1 (List.length (Context.flows ctx));
  let all_done = ref false in
  Context.on_all_complete ctx (fun () -> all_done := true);
  Context.complete ctx f0;
  Alcotest.(check bool) "no open flow left" true !all_done;
  let f1 = Context.add_flow ctx (spec ~src:rx ~dst:h0 ~size:(kb 10.) ()) in
  Alcotest.(check int) "next flow id" 1 f1.Context.id

(* Host a - switch s = host b, two s<->b cables, the newer pair down: a
   PDQ flow each way completes over the older, up cable. Its data and
   its ACKs cross links 2 (s->b) and 3 (b->s), and the down links 4/5
   carry and drop nothing. *)
let test_parallel_cable_newer_down () =
  let topo = Topology.create ~sim:(Sim.create ()) () in
  let a = Topology.add_host topo in
  let s = Topology.add_switch topo in
  let b = Topology.add_host topo in
  Topology.connect topo a s;
  Topology.connect topo s b;
  Topology.connect topo s b;
  Topology.set_link_up topo ~a:s ~b false;
  let r =
    Runner.execute ~options:opts ~topo (Runner.Pdq Config.full)
      [
        spec ~src:a ~dst:b ~size:(kb 100.) ();
        spec ~src:b ~dst:a ~size:(kb 100.) ();
      ]
  in
  Alcotest.(check int) "both completed" 2 r.Runner.completed;
  Alcotest.(check int) "no abort" 0 r.Runner.aborted;
  Alcotest.(check (option int)) "no stale-route drop" None
    (List.assoc_opt "drop.stale_route" r.Runner.counters);
  let link = Topology.link topo in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "link %d carried packets" l)
        true
        (Pdq_net.Link.delivered (link l) > 0))
    [ 2; 3 ];
  List.iter
    (fun l ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "down link %d: delivered, dropped" l)
        (0, 0)
        (Pdq_net.Link.delivered (link l), Pdq_net.Link.dropped (link l)))
    [ 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Golden endpoint digests *)

(* Each paced endpoint (PDQ, PDQ without Early Termination, M-PDQ, RCP,
   D3) runs one faulted scenario on a k=4 fat-tree: 24 flows between
   hosts 0..13 with staggered starts and deadlines on three in four of
   them, a six-flow incast into host 13 whose 8 ms deadlines cannot
   all be met, standing 3% loss on one edge-aggregation cable, an
   aggregation-core cable flapping down from 2 to 7 ms, an edge and a
   core switch rebooting, and two dead hosts. Host 15 is cut off from
   the start, so its flow retries its SYN until it aborts; host 14 is
   cut off at 4 ms, so the long flow into it stalls and aborts. Each
   run hashes two things: every per-flow outcome (fct in exact hex,
   met, terminated, aborted) plus every counter, and the full trace
   event stream. A change to the endpoints that is meant to be
   output-preserving must leave every digest as committed. *)
let golden_run =
  let runs = Hashtbl.create 8 in
  fun protocol ->
    let key = Runner.protocol_name protocol in
    match Hashtbl.find_opt runs key with
    | Some r -> r
    | None ->
        let sim = Sim.create () in
        let built = Builder.fat_tree ~sim ~k:4 () in
        let topo = built.Builder.topo and hosts = built.Builder.hosts in
        let rng = Pdq_engine.Rng.create 23 in
        let pick () = hosts.(Pdq_engine.Rng.int rng 14) in
        let specs =
          List.init 24 (fun i ->
              let src = pick () in
              let dst =
                let rec other () =
                  let d = pick () in
                  if d = src then other () else d
                in
                other ()
              in
              let size = kb (10. +. (290. *. Pdq_engine.Rng.float rng)) in
              let deadline =
                if i mod 4 = 3 then None
                else Some (2e-3 +. (18e-3 *. Pdq_engine.Rng.float rng))
              in
              spec ?deadline ~start:(float_of_int (i mod 7) *. 3e-4) ~src ~dst
                ~size ())
          @ List.init 6 (fun j ->
                spec ~deadline:8e-3 ~start:1e-3 ~src:hosts.(j) ~dst:hosts.(13)
                  ~size:(kb 200.) ())
          @ [
              spec ~src:hosts.(15) ~dst:hosts.(0) ~size:(kb 50.) ();
              spec ~start:1e-4 ~src:hosts.(1) ~dst:hosts.(14)
                ~size:(Units.mbyte 2.) ();
            ]
        in
        let host_cable h = (h, fst (List.hd (Topology.links_from topo h))) in
        let switch_cables = Pdq_faults.Fault_plan.switch_cables topo in
        let edge_agg = List.hd switch_cables in
        let agg_core = List.nth switch_cables (List.length switch_cables - 1) in
        let edge_of_h0 = snd (host_cable hosts.(0)) in
        let core = List.hd (Pdq_faults.Fault_plan.switches topo) in
        let down (a, b) = Pdq_faults.Fault_plan.Link_down { a; b } in
        let plan =
          Pdq_faults.Fault_plan.of_events
            [
              ( 0.,
                Pdq_faults.Fault_plan.Set_loss
                  {
                    a = fst edge_agg;
                    b = snd edge_agg;
                    model = Pdq_net.Link.Bernoulli 0.03;
                  } );
              (0., down (host_cable hosts.(15)));
              (2e-3, down agg_core);
              (3e-3, Pdq_faults.Fault_plan.Switch_reboot edge_of_h0);
              (4e-3, down (host_cable hosts.(14)));
              (5e-3, Pdq_faults.Fault_plan.Switch_reboot core);
              ( 7e-3,
                Pdq_faults.Fault_plan.Link_up { a = fst agg_core; b = snd agg_core }
              );
            ]
        in
        let trace = Buffer.create 65536 in
        let sink =
          Pdq_telemetry.Trace.callback (fun ~time ev ->
              Buffer.add_string trace (Pdq_telemetry.Trace.event_to_json ~time ev);
              Buffer.add_char trace '\n')
        in
        let options =
          {
            opts with
            Runner.seed = 7;
            horizon = 3.;
            faults = Some plan;
            telemetry = { Runner.no_telemetry with Runner.sinks = [ sink ] };
          }
        in
        let r = Runner.execute ~options ~topo protocol specs in
        let r = (r, Buffer.contents trace) in
        Hashtbl.replace runs key r;
        r

let outcome_digest (r : Runner.result) =
  let b = Buffer.create 1024 in
  Array.iter
    (fun (f : Runner.flow_result) ->
      (match f.Runner.fct with
      | Some x -> Printf.bprintf b "%h" x
      | None -> Buffer.add_char b '-');
      Printf.bprintf b ":%b%b%b;" f.Runner.met_deadline f.Runner.terminated
        f.Runner.aborted)
    r.Runner.flows;
  List.iter (fun (k, v) -> Printf.bprintf b "|%s=%d" k v) r.Runner.counters;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (name, protocol, outcome digest, trace digest). *)
let golden_endpoints =
  [
    ( "PDQ(Full)",
      Runner.Pdq Config.full,
      "a296760383eb73d20cc75a8fb5a34891",
      "9cf229e8e05b5c120c36414856e32812" );
    ( "PDQ no ET",
      Runner.Pdq
        {
          Config.full with
          Config.features =
            { Config.full.Config.features with Config.early_termination = false };
        },
      "8b944af7c21de0364e403bdc8ba8b10c",
      "0cdaa2436dc7385f9f58fc4a2cd60c3f" );
    ( "M-PDQ",
      Runner.mpdq ~subflows:3 (),
      "ce658b7f4ed6073fb9c0bb32e53ad203",
      "0ac0d7566c801649f6a32af2b25199ea" );
    ( "RCP",
      Runner.Rcp,
      "205150faa1b6f29f59330d4941ed9795",
      "775ee2fc8c0f87a3420e144a9e1480fa" );
    ( "D3",
      Runner.D3,
      "6cf0b8c69096fb81a792f1efecbb7ccc",
      "3d6af056c09c67a6a2d2bf39736ed0d7" );
  ]

let test_golden_endpoint (name, protocol, outcome, trace) () =
  let r, events = golden_run protocol in
  Alcotest.(check string) (name ^ " outcome") outcome (outcome_digest r);
  Alcotest.(check string) (name ^ " trace") trace
    (Digest.to_hex (Digest.string events))

(* The golden scenarios reach every recovery path of the endpoints, so
   the digests pin each of them. *)
let test_golden_paths_fire () =
  let runs = List.map (fun (_, p, _, _) -> golden_run p) golden_endpoints in
  let counter key =
    List.fold_left
      (fun acc ((r : Runner.result), _) ->
        List.fold_left
          (fun acc (k, v) ->
            if k = "abort." ^ key || k = "abort.subflow." ^ key then acc + v
            else acc)
          acc r.Runner.counters)
      0 runs
  in
  let in_trace needle =
    List.exists
      (fun (_, events) ->
        let n = String.length needle and m = String.length events in
        let rec scan i =
          i + n <= m && (String.sub events i n = needle || scan (i + 1))
        in
        scan 0)
      runs
  in
  let terminated protocol =
    let r, _ = golden_run protocol in
    Array.exists
      (fun (f : Runner.flow_result) -> f.Runner.terminated)
      r.Runner.flows
  in
  Alcotest.(check bool) "SYN retries exhausted" true (counter "syn" > 0);
  Alcotest.(check bool) "stall abort" true (counter "stall" > 0);
  Alcotest.(check bool) "watchdog go-back-N" true
    (in_trace "\"kind\":\"watchdog\"");
  Alcotest.(check bool) "fast retransmit" true (in_trace "\"kind\":\"fast\"");
  Alcotest.(check bool) "D3 quench" true (terminated Runner.D3);
  Alcotest.(check bool) "PDQ Early Termination" true
    (terminated (Runner.Pdq Config.full))

(* The endpoints' event kinds are perfbench metric keys
   ([engine.kind.<name>.*]): each must stay registered and fire under
   its name. *)
let endpoint_kinds =
  [
    "pdq.send";
    "pdq.probe";
    "pdq.watchdog";
    "pdq.launch";
    "rate.send";
    "rate.watchdog";
    "rate.launch";
  ]

let test_endpoint_kind_names () =
  let module Profiler = Pdq_engine.Profiler in
  let p = Profiler.enable_global () in
  Profiler.reset p;
  Fun.protect ~finally:Profiler.disable_global (fun () ->
      List.iter
        (fun protocol ->
          ignore
            (run_single_bottleneck protocol (fun hosts rx ->
                 [
                   spec ~start:1e-4 ~src:hosts.(0) ~dst:rx ~size:(kb 200.) ();
                   spec ~start:2e-4 ~src:hosts.(1) ~dst:rx ~size:(kb 100.) ();
                 ])))
        [ Runner.Pdq Config.full; Runner.Rcp ]);
  let registered =
    List.init (Sim.Kind.count ()) (fun i -> Sim.Kind.name (Sim.Kind.of_int i))
  in
  let fired = Profiler.kinds p in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (List.mem name registered);
      Alcotest.(check bool) (name ^ " fired") true
        (match List.assoc_opt name fired with
        | Some (n, _) -> n > 0
        | None -> false))
    endpoint_kinds

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
        Alcotest.test_case "parallel cable, newer one down" `Quick
          test_parallel_cable_newer_down;
        Alcotest.test_case "self flow rejected" `Quick test_self_flow_rejected;
      ] );
    ( "transport.endpoint",
      List.map
        (fun ((name, _, _, _) as g) ->
          Alcotest.test_case ("golden digest: " ^ name) `Quick
            (test_golden_endpoint g))
        golden_endpoints
      @ [
          Alcotest.test_case "golden scenarios reach every recovery path" `Quick
            test_golden_paths_fire;
          Alcotest.test_case "event kind names" `Quick test_endpoint_kind_names;
        ] );
  ]
