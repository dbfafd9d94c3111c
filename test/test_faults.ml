(* Fault-injection subsystem: plan DSL determinism, switch soft-state
   flush/rebuild, and end-to-end resilience behavior of the runner. *)

module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Units = Pdq_engine.Units
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Builder = Pdq_topo.Builder
module Fault_plan = Pdq_faults.Fault_plan
module Config = Pdq_core.Config
module Header = Pdq_core.Header
module Switch_port = Pdq_core.Switch_port
module Flow_list = Pdq_core.Flow_list
module Context = Pdq_transport.Context
module Runner = Pdq_transport.Runner
module Rcp_proto = Pdq_transport.Rcp_proto
module D3_proto = Pdq_transport.D3_proto

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)

(* ------------------------------------------------------------------ *)
(* Plan DSL *)

let test_plan_generators_deterministic () =
  let build seed =
    let rng = Rng.create seed in
    let flaps =
      Fault_plan.link_flaps (Rng.split rng)
        ~links:[ (0, 1); (1, 2); (2, 3) ]
        ~mtbf:0.1 ~mttr:0.02 ~until:2.
    in
    let reboots =
      Fault_plan.switch_reboots (Rng.split rng)
        ~switches:[ 1; 2; 3 ]
        ~mtbf:0.2 ~until:2.
    in
    Fault_plan.merge flaps reboots
  in
  let a = build 42 and b = build 42 and c = build 43 in
  Alcotest.(check bool) "nonempty" false (Fault_plan.is_empty a);
  Alcotest.(check bool) "same seed, identical trace" true
    (Fault_plan.events a = Fault_plan.events b);
  Alcotest.(check bool) "different seed, different trace" false
    (Fault_plan.events a = Fault_plan.events c)

let test_plan_of_events () =
  let p =
    Fault_plan.of_events
      [
        (0.3, Fault_plan.Link_up { a = 0; b = 1 });
        (0.1, Fault_plan.Link_down { a = 0; b = 1 });
        (0.2, Fault_plan.Switch_reboot 5);
      ]
  in
  (match Fault_plan.events p with
  | [ (t1, Fault_plan.Link_down _); (t2, Fault_plan.Switch_reboot 5);
      (t3, Fault_plan.Link_up _) ] ->
      Alcotest.(check bool) "sorted" true (t1 < t2 && t2 < t3)
  | _ -> Alcotest.fail "events not sorted by time");
  Alcotest.(check int) "length" 3 (Fault_plan.length p);
  Alcotest.check_raises "negative time rejected"
    (Invalid_argument "Fault_plan.of_events: negative event time") (fun () ->
      ignore (Fault_plan.of_events [ (-1., Fault_plan.Switch_reboot 0) ]))

(* Out-of-range parameters are rejected by [of_events] and reported
   by [of_json], so a reproducer cannot carry a loss rate no link can
   draw or a condition the adversary cannot apply. *)
let test_plan_validation () =
  let set model = Fault_plan.Set_loss { a = 0; b = 1; model } in
  let ge ?(p_gb = 0.1) ?(p_bg = 0.3) ?(loss_good = 0.) ?(loss_bad = 0.5) () =
    set (Link.Gilbert { Link.p_gb; p_bg; loss_good; loss_bad })
  in
  let rejects msg ev =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fault_plan.of_events [ (0., ev) ]))
  in
  rejects "Fault_plan: loss probability 1.5" (set (Link.Bernoulli 1.5));
  rejects "Fault_plan: gilbert p_gb probability 2" (ge ~p_gb:2. ());
  rejects "Fault_plan: gilbert p_bg probability -1" (ge ~p_bg:(-1.) ());
  rejects "Fault_plan: gilbert loss_good probability inf"
    (ge ~loss_good:infinity ());
  rejects "Fault_plan: gilbert loss_bad probability 1.01"
    (ge ~loss_bad:1.01 ());
  rejects "Fault_plan: reorder probability -0.5"
    (Fault_plan.Reorder { a = 0; b = 1; p = -0.5; hold = 1e-3 });
  rejects "Fault_plan: jitter max_delay -1"
    (Fault_plan.Jitter { a = 0; b = 1; max_delay = -1. });
  rejects "Fault_plan: non-finite clock skew"
    (Fault_plan.Clock_skew { switch = 0; skew = nan });
  Alcotest.(check int) "boundary values accepted" 3
    (Fault_plan.length
       (Fault_plan.of_events
          [
            (0., set (Link.Bernoulli 0.));
            (0., set (Link.Bernoulli 1.));
            (0., ge ~p_gb:0. ~p_bg:1. ~loss_good:0. ~loss_bad:1. ());
          ]));
  let of_json_error what json =
    match Fault_plan.of_json json with
    | Ok _ -> Alcotest.failf "of_json accepted %s" what
    | Error _ -> ()
  in
  of_json_error "loss 1.5" {|[{"t":0,"ev":"loss","a":0,"b":1,"loss":1.5}]|}

(* [to_json] writes [inf] and [nan] as tokens [of_json] cannot read
   back, so non-finite times are rejected at construction. *)
let test_plan_non_finite_time () =
  List.iter
    (fun t ->
      Alcotest.check_raises "non-finite time rejected"
        (Invalid_argument "Fault_plan.of_events: non-finite event time")
        (fun () ->
          ignore (Fault_plan.of_events [ (t, Fault_plan.Switch_reboot 0) ])))
    [ infinity; nan ]

(* A plan naming an absent cable is rejected at install, before any
   event is scheduled. *)
let test_install_missing_cable () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let topo = built.Builder.topo in
  let plan =
    Fault_plan.of_events [ (0.1, Fault_plan.Link_down { a = 0; b = 2 }) ]
  in
  let pending = Sim.pending sim in
  Alcotest.check_raises "check_cables names the cable"
    (Invalid_argument "Topology.cable: no cable 0<->2") (fun () ->
      Fault_plan.check_cables topo plan);
  Alcotest.check_raises "install rejects the plan"
    (Invalid_argument "Topology.cable: no cable 0<->2") (fun () ->
      Fault_plan.install ~sim ~topo ~rng:(Rng.create 1)
        ~on_change:(fun () -> ())
        ~on_reboot:(fun _ -> ())
        plan);
  Alcotest.(check int) "nothing scheduled" pending (Sim.pending sim)

let test_plan_targets () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let cables = Fault_plan.switch_cables built.Builder.topo in
  let switches = Fault_plan.switches built.Builder.topo in
  (* Fig 2a: root + 4 ToRs, root-ToR cables only (host links excluded). *)
  Alcotest.(check int) "switch-switch cables" 4 (List.length cables);
  Alcotest.(check int) "switches" 5 (List.length switches)

(* ------------------------------------------------------------------ *)
(* Switch soft state: flush and header-driven rebuild *)

let test_port_flush_and_rebuild () =
  let gbps = Units.gbps 1. in
  let port =
    Switch_port.create ~config:Config.full ~switch_id:9 ~link_rate:gbps
      ~init_rtt:1.5e-4 ()
  in
  let h1 = Header.make ~rate:gbps ~expected_tx_time:1e-3 ~rtt:4e-4 () in
  Switch_port.process_forward port h1 ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h1 ~flow_id:1 ~now:1e-4;
  let h2 = Header.make ~rate:gbps ~expected_tx_time:10. ~rtt:4e-4 () in
  Switch_port.process_forward port h2 ~flow_id:2 ~now:2e-4;
  Alcotest.(check int) "two flows stored" 2
    (Flow_list.length (Switch_port.flow_list port));
  Alcotest.(check bool) "rtt estimate moved" false
    (feq 1.5e-4 (Switch_port.rtt_avg port));
  (* Crash-reboot. *)
  Switch_port.flush port;
  Alcotest.(check int) "flow list wiped" 0
    (Flow_list.length (Switch_port.flow_list port));
  Alcotest.(check int) "fallback wiped" 0 (Switch_port.fallback_flow_count port);
  Alcotest.(check bool) "rtt estimate reset" true
    (feq 1.5e-4 (Switch_port.rtt_avg port));
  (* The next traversing header rebuilds the state from scratch: the
     flow is stored again and accepted at full rate. *)
  let h1' = Header.make ~rate:gbps ~expected_tx_time:1e-3 ~rtt:4e-4 () in
  Switch_port.process_forward port h1' ~flow_id:1 ~now:3e-4;
  Alcotest.(check int) "rebuilt from header" 1
    (Flow_list.length (Switch_port.flow_list port));
  Alcotest.(check bool) "accepted after rebuild" true
    (h1'.Header.pause_by = None)

(* ------------------------------------------------------------------ *)
(* End-to-end: runner integration *)

let specs_cross_rack built ~flows ~size =
  (* Aggregation onto hosts.(0) from the other racks. *)
  let hosts = built.Builder.hosts in
  List.init flows (fun i ->
      {
        Context.src = hosts.(Array.length hosts - 1 - i);
        dst = hosts.(0);
        size;
        deadline = None;
        start = 0.;
      })

let run_tree ?faults ?(protocol = Runner.Pdq Config.full) ?(horizon = 3.)
    ~flows ~size () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let options =
    { Runner.default_options with Runner.seed = 1; horizon; faults }
  in
  ( Runner.execute ~options ~topo:built.Builder.topo protocol
      (specs_cross_rack built ~flows ~size),
    built )

(* The bit-for-bit acceptance criterion: an empty fault plan must not
   perturb the run in any way — not even an extra RNG split. *)
let test_empty_plan_bit_for_bit () =
  let fcts faults =
    let r, _ = run_tree ?faults ~flows:6 ~size:300_000 () in
    ( Array.map (fun (f : Runner.flow_result) -> f.Runner.fct) r.Runner.flows,
      r.Runner.sim_end,
      r.Runner.counters )
  in
  let f0, end0, c0 = fcts None in
  let f1, end1, c1 = fcts (Some Fault_plan.empty) in
  Alcotest.(check bool) "identical FCTs" true (f0 = f1);
  Alcotest.(check bool) "identical end time" true (end0 = end1);
  Alcotest.(check bool) "no counters in clean runs" true (c0 = [] && c1 = [])

(* A mid-transfer permanent failure of the aggregation cable: the tree
   has no alternate path, so the flow keeps its stale route, its
   packets die at the down link, and the watchdog reaches a terminal
   abort instead of hanging until the horizon. *)
let test_dead_path_aborts () =
  let check_proto protocol =
    let sim = Sim.create () in
    let built = Builder.single_rooted_tree ~sim () in
    let specs = specs_cross_rack built ~flows:1 ~size:2_000_000 in
    let dst_tor =
      (* The receiver's ToR-root cable; hosts.(0)'s neighbor switch. *)
      match Topology.links_from built.Builder.topo built.Builder.hosts.(0) with
      | (next, _) :: _ -> next
      | [] -> Alcotest.fail "host has no links"
    in
    let root =
      match
        List.filter
          (fun (a, b) -> a = dst_tor || b = dst_tor)
          (Fault_plan.switch_cables built.Builder.topo)
      with
      | (a, b) :: _ -> if a = dst_tor then b else a
      | [] -> Alcotest.fail "no root cable"
    in
    let faults =
      Fault_plan.of_events
        [ (0.004, Fault_plan.Link_down { a = dst_tor; b = root }) ]
    in
    let options =
      {
        Runner.default_options with
        Runner.seed = 1;
        horizon = 5.;
        faults = Some faults;
      }
    in
    let r = Runner.execute ~options ~topo:built.Builder.topo protocol specs in
    Alcotest.(check int)
      (Runner.protocol_name protocol ^ " aborted")
      1 r.Runner.aborted;
    Alcotest.(check int)
      (Runner.protocol_name protocol ^ " not completed")
      0 r.Runner.completed;
    Alcotest.(check bool)
      (Runner.protocol_name protocol ^ " run ends before horizon")
      true
      (r.Runner.sim_end < 5.);
    let count key = try List.assoc key r.Runner.counters with Not_found -> 0 in
    Alcotest.(check bool)
      (Runner.protocol_name protocol ^ " per-cause abort counted")
      true
      (count "abort.stall" + count "abort.syn" = 1);
    Alcotest.(check bool)
      (Runner.protocol_name protocol ^ " drops at the down link")
      true
      (count "drop.down" > 0)
  in
  check_proto (Runner.Pdq Config.full);
  check_proto Runner.Tcp;
  check_proto Runner.Rcp

(* Switch crash-reboots mid-transfer: every switch loses its scheduler
   state twice, yet all flows finish — the state is rebuilt from the
   scheduling headers of packets in flight (the paper's soft-state
   argument), not by any explicit resynchronization. Run for every
   protocol: PDQ, RCP and D3 flush per-port state; TCP keeps none. *)
let test_switch_reboot_flows_resume () =
  let check_proto protocol =
    let sim = Sim.create () in
    let built = Builder.single_rooted_tree ~sim () in
    let specs = specs_cross_rack built ~flows:6 ~size:500_000 in
    let reboot_all t =
      List.map
        (fun n -> (t, Fault_plan.Switch_reboot n))
        (Fault_plan.switches built.Builder.topo)
    in
    let faults = Fault_plan.of_events (reboot_all 0.002 @ reboot_all 0.006) in
    let options =
      {
        Runner.default_options with
        Runner.seed = 1;
        horizon = 5.;
        faults = Some faults;
      }
    in
    let r = Runner.execute ~options ~topo:built.Builder.topo protocol specs in
    let name = Runner.protocol_name protocol in
    Alcotest.(check int) (name ^ " all flows complete") 6 r.Runner.completed;
    Alcotest.(check int) (name ^ " no aborts") 0 r.Runner.aborted;
    Alcotest.(check bool)
      (name ^ " no hang (ends before horizon)")
      true (r.Runner.sim_end < 5.);
    Alcotest.(check int) (name ^ " reboots counted") 10
      (try List.assoc "fault.switch_reboot" r.Runner.counters
       with Not_found -> 0)
  in
  List.iter check_proto
    [ Runner.Pdq Config.full; Runner.Rcp; Runner.D3; Runner.Tcp ]

(* A reboot resets exactly the rebooted switch's ports: mid-transfer,
   RCP's and D3's per-port flow tables empty on the node's outgoing
   links and keep their size on every other link. *)
let test_reboot_flushes_own_ports () =
  let check_proto name install start count =
    let sim = Sim.create () in
    let built = Builder.single_rooted_tree ~sim () in
    let topo = built.Builder.topo in
    let ctx = Context.create ~sim ~topo ~rng:(Rng.create 1) () in
    let p = install ctx in
    List.iter
      (fun spec -> start p (Context.add_flow ctx spec))
      (specs_cross_rack built ~flows:6 ~size:500_000);
    Sim.run ~until:0.002 sim;
    let counts () =
      Array.init (Topology.link_count topo) (fun link -> count p ~link)
    in
    let before = counts () in
    let outgoing node link = Link.src (Topology.link topo link) = node in
    (* The switch holding the most flow state on its outgoing links. *)
    let held node =
      let n = ref 0 in
      Array.iteri (fun l c -> if outgoing node l then n := !n + c) before;
      !n
    in
    let node =
      List.fold_left
        (fun best n -> if held n > held best then n else best)
        (List.hd (Fault_plan.switches topo))
        (Fault_plan.switches topo)
    in
    Alcotest.(check bool) (name ^ " state before the reboot") true
      (held node > 0
      && Array.exists (fun c -> c > 0)
           (Array.mapi (fun l c -> if outgoing node l then 0 else c) before));
    Context.reboot_switch ctx ~node;
    Array.iteri
      (fun link c ->
        Alcotest.(check int)
          (Printf.sprintf "%s link %d" name link)
          (if outgoing node link then 0 else before.(link))
          c)
      (counts ())
  in
  check_proto "rcp"
    (fun ctx -> Rcp_proto.install ~ctx ~until:1.)
    Rcp_proto.start_flow Rcp_proto.flow_count;
  check_proto "d3"
    (fun ctx -> D3_proto.install ~ctx ~until:1.)
    D3_proto.start_flow D3_proto.flow_count

(* Loss episode on the bottleneck: a 5 ms 100% black-out, a [Set_loss]
   pair, delays the transfer but retransmission machinery completes
   it. *)
let test_loss_burst_recovers () =
  let run faults =
    let sim = Sim.create () in
    let built, rx = Builder.single_bottleneck ~sim ~senders:4 () in
    let specs =
      [
        {
          Context.src = built.Builder.hosts.(0);
          dst = rx;
          size = 500_000;
          deadline = None;
          start = 0.;
        };
      ]
    in
    let options =
      { Runner.default_options with Runner.seed = 1; horizon = 3.; faults }
    in
    Runner.execute ~options ~topo:built.Builder.topo (Runner.Pdq Config.full) specs
  in
  let clean = run None in
  let bursty =
    run
      (Some
         (Fault_plan.of_events
            [
              ( 0.001,
                Fault_plan.Set_loss { a = 0; b = 1; model = Link.Bernoulli 1.0 }
              );
              ( 0.006,
                Fault_plan.Set_loss { a = 0; b = 1; model = Link.No_loss } );
            ]))
  in
  Alcotest.(check int) "clean completes" 1 clean.Runner.completed;
  Alcotest.(check int) "bursty completes" 1 bursty.Runner.completed;
  Alcotest.(check bool) "burst delays the flow" true
    (bursty.Runner.mean_fct > clean.Runner.mean_fct +. 0.004);
  Alcotest.(check bool) "drops counted as loss" true
    (try List.assoc "drop.loss" bursty.Runner.counters > 0
     with Not_found -> false)

(* Fat-tree under heavy flapping: ECMP re-pinning routes around
   outages; the run must stay exception-free, deterministic, and every
   flow must reach a terminal state (no hang). *)
let test_fat_tree_flapping_deterministic () =
  let run () =
    let sim = Sim.create () in
    let built = Builder.fat_tree ~sim ~k:4 () in
    let hosts = built.Builder.hosts in
    let specs =
      List.init 8 (fun i ->
          {
            Context.src = hosts.(Array.length hosts - 1 - i);
            dst = hosts.(0);
            size = 400_000;
            deadline = None;
            start = float_of_int i *. 0.002;
          })
    in
    let faults =
      Fault_plan.link_flaps (Rng.create 5)
        ~links:(Fault_plan.switch_cables built.Builder.topo)
        ~mtbf:0.08 ~mttr:0.02 ~until:0.5
    in
    let options =
      {
        Runner.default_options with
        Runner.seed = 1;
        horizon = 4.;
        faults = Some faults;
      }
    in
    Runner.execute ~options ~topo:built.Builder.topo (Runner.Pdq Config.full) specs
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "every flow reaches a terminal state" true
    (Array.for_all
       (fun (f : Runner.flow_result) ->
         f.Runner.fct <> None || f.Runner.terminated || f.Runner.aborted)
       a.Runner.flows);
  Alcotest.(check bool) "most flows survive rerouting" true
    (a.Runner.completed >= 6);
  Alcotest.(check bool) "deterministic (same seed, same result)" true
    (a.Runner.mean_fct = b.Runner.mean_fct
    && a.Runner.counters = b.Runner.counters
    && a.Runner.sim_end = b.Runner.sim_end)

let suites =
  [
    ( "faults.plan",
      [
        Alcotest.test_case "generator determinism" `Quick
          test_plan_generators_deterministic;
        Alcotest.test_case "of_events ordering" `Quick test_plan_of_events;
        Alcotest.test_case "parameter validation" `Quick test_plan_validation;
        Alcotest.test_case "non-finite times rejected" `Quick
          test_plan_non_finite_time;
        Alcotest.test_case "missing cable rejected at install" `Quick
          test_install_missing_cable;
        Alcotest.test_case "topology targets" `Quick test_plan_targets;
      ] );
    ( "faults.switch_state",
      [
        Alcotest.test_case "flush and header rebuild" `Quick
          test_port_flush_and_rebuild;
        Alcotest.test_case "reboot flushes only its own ports" `Quick
          test_reboot_flushes_own_ports;
      ] );
    ( "faults.endtoend",
      [
        Alcotest.test_case "empty plan is bit-for-bit clean" `Quick
          test_empty_plan_bit_for_bit;
        Alcotest.test_case "dead path aborts with counters" `Quick
          test_dead_path_aborts;
        Alcotest.test_case "switch reboots: flows resume" `Quick
          test_switch_reboot_flows_resume;
        Alcotest.test_case "loss burst recovers" `Quick test_loss_burst_recovers;
        Alcotest.test_case "fat-tree flapping deterministic" `Quick
          test_fat_tree_flapping_deterministic;
      ] );
  ]
