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

(* Results are per spec, whatever order the specs come in: specs already
   in admission order (start, then id), which skip the sort, and the
   same specs shuffled give the same outcome for every flow. [mean_fct]
   sums in spec order, so only it may differ, in the last bits. Random
   criticality draws its priorities in spec order, so it is left out. *)
let test_spec_order () =
  let net, specs = Lazy.force golden_specs in
  let admission (a : Flowsim.flow_spec) (b : Flowsim.flow_spec) =
    match Float.compare a.Flowsim.start b.Flowsim.start with
    | 0 -> Int.compare a.Flowsim.fs_id b.Flowsim.fs_id
    | c -> c
  in
  let in_order = List.stable_sort admission specs in
  let shuffled = Array.of_list specs in
  Pdq_engine.Rng.shuffle (Pdq_engine.Rng.create 3) shuffled;
  let by_id (r : Flowsim.result) =
    Array.to_list r.Flowsim.flows
    |> List.map (fun (f : Flowsim.flow_result) ->
           ( f.Flowsim.spec.Flowsim.fs_id,
             Option.map Int64.bits_of_float f.Flowsim.fct,
             f.Flowsim.met_deadline,
             f.Flowsim.terminated ))
    |> List.sort compare
  in
  List.iter
    (fun (name, proto, _, _) ->
      if name <> "pdq random criticality" then begin
        let a = Flowsim.run ~seed:5 net proto in_order
        and b = Flowsim.run ~seed:5 net proto (Array.to_list shuffled) in
        Alcotest.(check bool) (name ^ ": every flow") true (by_id a = by_id b);
        Alcotest.(check int) (name ^ ": completed") a.Flowsim.completed b.Flowsim.completed;
        Alcotest.(check (float 0.)) (name ^ ": throughput")
          a.Flowsim.application_throughput b.Flowsim.application_throughput;
        Alcotest.(check (float 0.)) (name ^ ": max fct") a.Flowsim.max_fct b.Flowsim.max_fct;
        Alcotest.(check (float 1e-15)) (name ^ ": mean fct") a.Flowsim.mean_fct
          b.Flowsim.mean_fct
      end)
    golden

(* ------------------------------------------------------------------ *)
(* RCP against a reference model *)

(* A reference model of RCP's water-filling over a lazy queue, in
   lists: every (share, seq, link) entry stays queued until popped, an
   entry whose link has no unassigned flow left is popped and skipped,
   and the least entry is found by a scan. *)
let model_rcp_rates ~capacity ~(paths : int array array) active rate =
  let residual = Array.copy capacity in
  let count = Array.make (Array.length capacity) 0 in
  List.iter
    (fun i ->
      rate.(i) <- -1.;
      Array.iter (fun l -> count.(l) <- count.(l) + 1) paths.(i))
    active;
  let entries = ref [] and seq = ref 0 in
  let push l =
    if count.(l) > 0 then begin
      entries := (residual.(l) /. float_of_int count.(l), !seq, l) :: !entries;
      incr seq
    end
  in
  Array.iteri (fun l _ -> push l) capacity;
  let before (s, q, _) (s', q', _) = s < s' || (s = s' && q < q') in
  while !entries <> [] do
    let key, q, l =
      List.fold_left
        (fun a e -> if before e a then e else a)
        (List.hd !entries) !entries
    in
    entries := List.filter (fun (_, q', _) -> q' <> q) !entries;
    if count.(l) > 0 then begin
      let fair = residual.(l) /. float_of_int count.(l) in
      if fair > key +. 1e-6 then push l
      else
        List.iter
          (fun i ->
            if rate.(i) < 0. && Array.mem l paths.(i) then begin
              let r = if 0. >= fair then 0. else fair in
              rate.(i) <- r;
              Array.iter
                (fun m ->
                  count.(m) <- count.(m) - 1;
                  if m <> l then begin
                    residual.(m) <- residual.(m) -. r;
                    push m
                  end)
                paths.(i)
            end)
          active
    end
  done;
  List.iter (fun i -> if rate.(i) < 0. then rate.(i) <- 0.) active

(* [Flowsim.run]'s step loop for RCP with its default options, over
   [model_rcp_rates]: each flow's FCT, or [None]. *)
let model_rcp_run ~dt (net : Flowsim.net) specs =
  let goodput_factor = 1. -. (56. /. 1500.) in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let paths = Array.map (fun (s : Flowsim.flow_spec) -> s.Flowsim.path) specs in
  let remaining =
    Array.map (fun (s : Flowsim.flow_spec) -> 8. *. float_of_int s.Flowsim.size) specs
  in
  let done_at = Array.make n Float.nan and rate = Array.make n 0. in
  let pending =
    ref
      (List.stable_sort
         (fun a b ->
           match Float.compare specs.(a).Flowsim.start specs.(b).Flowsim.start with
           | 0 -> Int.compare specs.(a).Flowsim.fs_id specs.(b).Flowsim.fs_id
           | c -> c)
         (List.init n Fun.id))
  in
  let active = ref [] and open_flows = ref n in
  let t = ref (match !pending with [] -> 0. | i :: _ -> specs.(i).Flowsim.start) in
  while !open_flows > 0 && !t < 60. do
    let rec admit () =
      match !pending with
      | i :: rest when specs.(i).Flowsim.start +. 5e-4 <= !t +. 1e-12 ->
          active := !active @ [ i ];
          pending := rest;
          admit ()
      | _ -> ()
    in
    admit ();
    model_rcp_rates ~capacity:net.Flowsim.capacity ~paths !active rate;
    List.iter
      (fun i ->
        let goodput = rate.(i) *. goodput_factor in
        if goodput > 0. then begin
          let work = goodput *. dt in
          if work >= remaining.(i) then begin
            done_at.(i) <- !t +. (remaining.(i) /. goodput);
            remaining.(i) <- 0.;
            decr open_flows
          end
          else remaining.(i) <- remaining.(i) -. work
        end)
      !active;
    active := List.filter (fun i -> Float.is_nan done_at.(i)) !active;
    t := !t +. dt
  done;
  Array.mapi
    (fun i (s : Flowsim.flow_spec) ->
      if Float.is_nan done_at.(i) then None else Some (done_at.(i) -. s.Flowsim.start))
    specs

(* Random RCP instances: up to 8 links, most within a few ulps of
   1 Gbps, so that fair shares tie or differ by less than the 1e-6 stale
   tolerance and a link can freeze a hair above another's share (which
   then falls: pushes before a list's tail). Up to 32 flows on paths of
   1-4 distinct links in random order, a few sizes (equal completions)
   and starts on a coarse grid (flows admitted together and at
   staggered steps). Ids are distinct but not in list order. *)
let rcp_instance =
  let gen =
    QCheck.Gen.(
      let* nlinks = int_range 1 8 in
      let* capacity =
        array_repeat nlinks
          (oneofl [ 1e9; 1e9; 1e9 +. 3e-7; 1e9 +. 6e-7; 1e9 -. 3e-7; 2e9 ])
      in
      let* flows =
        list_size (int_range 1 32)
          (triple
             (list_size (int_range 1 4) (int_bound (nlinks - 1)))
             (oneofl [ 50_000; 100_000; 100_000; 250_000 ])
             (int_bound 4))
      in
      let* dt = oneofl [ 1e-3; 1e-4 ] in
      let specs =
        List.mapi
          (fun i (links, size, start) ->
            let path =
              List.fold_left
                (fun acc l -> if List.mem l acc then acc else acc @ [ l ])
                [] links
            in
            flow ~id:(((i * 5) + 3) mod 101) ~path:(Array.of_list path) ~size
              ~start:(float_of_int start *. 2.9e-4)
              ())
          flows
      in
      return ({ Flowsim.capacity }, specs, dt))
  in
  let print ({ Flowsim.capacity }, specs, dt) =
    Printf.sprintf "dt=%g caps=[%s] flows=[%s]" dt
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") capacity)))
      (String.concat "; "
         (List.map
            (fun (s : Flowsim.flow_spec) ->
              Printf.sprintf "id %d path [%s] size %d start %g" s.Flowsim.fs_id
                (String.concat ","
                   (Array.to_list (Array.map string_of_int s.Flowsim.path)))
                s.Flowsim.size s.Flowsim.start)
            specs))
  in
  QCheck.make ~print gen

let prop_rcp_model =
  QCheck.Test.make ~name:"RCP equals the lazy-heap model bit for bit" ~count:1000
    rcp_instance (fun (net, specs, dt) ->
      let r = Flowsim.run ~dt net Flowsim.Rcp specs in
      let got =
        Array.map
          (fun (f : Flowsim.flow_result) -> Option.map Int64.bits_of_float f.Flowsim.fct)
          r.Flowsim.flows
      in
      got = Array.map (Option.map Int64.bits_of_float) (model_rcp_run ~dt net specs))

(* ------------------------------------------------------------------ *)
(* D3 against a reference model *)

let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

(* [Flowsim.run]'s step loop for D3 with default options but
   [init_latency], with one full-network pass a step in lists: every link's reservation state
   starts from its capacity, the flows reserve in admission order
   (quenching the infeasible ones), and every link's fair share for the
   next step is recomputed, the capacity where no flow crossed it. Each
   flow's (FCT bits, terminated). *)
let model_d3_run ~dt ~init_latency (net : Flowsim.net) specs =
  let capacity = net.Flowsim.capacity in
  let nlinks = Array.length capacity in
  let goodput_factor = 1. -. (56. /. 1500.) in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let paths = Array.map (fun (s : Flowsim.flow_spec) -> s.Flowsim.path) specs in
  let nic =
    Array.map
      (fun p -> Array.fold_left (fun a l -> fmin a capacity.(l)) infinity p *. goodput_factor)
      paths
  in
  let deadline =
    Array.map
      (fun (s : Flowsim.flow_spec) ->
        Option.map (fun d -> s.Flowsim.start +. d) s.Flowsim.deadline)
      specs
  in
  let remaining =
    Array.map (fun (s : Flowsim.flow_spec) -> 8. *. float_of_int s.Flowsim.size) specs
  in
  let done_at = Array.make n Float.nan and rate = Array.make n 0. in
  let dead = Array.make n false and fs = Array.make nlinks 0. in
  let pending =
    ref
      (List.stable_sort
         (fun a b ->
           match Float.compare specs.(a).Flowsim.start specs.(b).Flowsim.start with
           | 0 -> Int.compare specs.(a).Flowsim.fs_id specs.(b).Flowsim.fs_id
           | c -> c)
         (List.init n Fun.id))
  in
  let active = ref [] and open_flows = ref n in
  let t = ref (match !pending with [] -> 0. | i :: _ -> specs.(i).Flowsim.start) in
  while !open_flows > 0 && !t < 60. do
    let now = !t in
    let rec admit () =
      match !pending with
      | i :: rest when specs.(i).Flowsim.start +. init_latency <= now +. 1e-12 ->
          active := !active @ [ i ];
          pending := rest;
          admit ()
      | _ -> ()
    in
    admit ();
    let avail = Array.copy capacity in
    let demand = Array.make nlinks 0. and flows = Array.make nlinks 0 in
    List.iter
      (fun i ->
        let infeasible =
          match deadline.(i) with
          | None -> false
          | Some d -> now >= d || now +. (remaining.(i) /. nic.(i)) > d
        in
        if infeasible then begin
          dead.(i) <- true;
          rate.(i) <- 0.
        end
        else begin
          let request =
            match deadline.(i) with
            | None -> 0.
            | Some d -> if d > now then remaining.(i) /. (d -. now) else nic.(i)
          in
          let alloc =
            Array.fold_left
              (fun a l -> fmin a (fmin (request +. fs.(l)) avail.(l)))
              nic.(i) paths.(i)
          in
          let alloc = fmax 0. alloc in
          rate.(i) <- alloc;
          Array.iter
            (fun l ->
              avail.(l) <- avail.(l) -. alloc;
              demand.(l) <- demand.(l) +. request;
              flows.(l) <- flows.(l) + 1)
            paths.(i)
        end)
      !active;
    Array.iteri
      (fun l c ->
        fs.(l) <-
          (if flows.(l) > 0 then fmax 0. ((c -. demand.(l)) /. float_of_int flows.(l))
           else c))
      capacity;
    List.iter
      (fun i ->
        if dead.(i) then decr open_flows
        else
          let goodput = rate.(i) *. goodput_factor in
          if goodput > 0. then begin
            let work = goodput *. dt in
            if work >= remaining.(i) then begin
              done_at.(i) <- now +. (remaining.(i) /. goodput);
              remaining.(i) <- 0.;
              decr open_flows
            end
            else remaining.(i) <- remaining.(i) -. work
          end)
      !active;
    active := List.filter (fun i -> (not dead.(i)) && Float.is_nan done_at.(i)) !active;
    t := now +. dt
  done;
  Array.mapi
    (fun i (s : Flowsim.flow_spec) ->
      ( (if Float.is_nan done_at.(i) then None
         else Some (Int64.bits_of_float (done_at.(i) -. s.Flowsim.start))),
        dead.(i) ))
    specs

(* Random D3 instances: up to 8 links at one of a few capacities, up to
   24 flows on paths of 1-4 distinct links, starts spread over ~20 ms in
   2.3 ms steps (so links fall idle and carry flows again, and a step
   can admit none), and a deadline on most flows: loose, tight enough to
   reserve most of a link, or too tight to meet (quenched). With no init
   latency, the first step already has flows. Ids are distinct but not
   in list order. *)
let d3_instance =
  let gen =
    QCheck.Gen.(
      let* nlinks = int_range 1 8 in
      let* capacity = array_repeat nlinks (oneofl [ 1e9; 1e9; 1e9 +. 3e-7; 2e9; 5e8 ]) in
      let* flows =
        list_size (int_range 1 24)
          (quad
             (list_size (int_range 1 4) (int_bound (nlinks - 1)))
             (oneofl [ 20_000; 50_000; 100_000; 250_000 ])
             (int_bound 8)
             (oneofl [ None; Some 2e-4; Some 1.5e-3; Some 4e-3; Some 2e-2; Some 2e-2 ]))
      in
      let* dt = oneofl [ 1e-3; 1e-4 ] in
      let* init_latency = oneofl [ 5e-4; 5e-4; 0. ] in
      let specs =
        List.mapi
          (fun i (links, size, start, deadline) ->
            let path =
              List.fold_left
                (fun acc l -> if List.mem l acc then acc else acc @ [ l ])
                [] links
            in
            flow ?deadline ~id:(((i * 7) + 2) mod 97) ~path:(Array.of_list path) ~size
              ~start:(float_of_int start *. 2.3e-3)
              ())
          flows
      in
      return ({ Flowsim.capacity }, specs, dt, init_latency))
  in
  let print ({ Flowsim.capacity }, specs, dt, init_latency) =
    Printf.sprintf "dt=%g init_latency=%g caps=[%s] flows=[%s]" dt init_latency
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") capacity)))
      (String.concat "; "
         (List.map
            (fun (s : Flowsim.flow_spec) ->
              Printf.sprintf "id %d path [%s] size %d start %g deadline %s" s.Flowsim.fs_id
                (String.concat ","
                   (Array.to_list (Array.map string_of_int s.Flowsim.path)))
                s.Flowsim.size s.Flowsim.start
                (match s.Flowsim.deadline with Some d -> Printf.sprintf "%g" d | None -> "-"))
            specs))
  in
  QCheck.make ~print gen

let prop_d3_model =
  QCheck.Test.make ~name:"D3 equals the full-network model bit for bit" ~count:1000
    d3_instance (fun (net, specs, dt, init_latency) ->
      let r = Flowsim.run ~dt ~init_latency net Flowsim.D3 specs in
      let got =
        Array.map
          (fun (f : Flowsim.flow_result) ->
            (Option.map Int64.bits_of_float f.Flowsim.fct, f.Flowsim.terminated))
          r.Flowsim.flows
      in
      got = model_d3_run ~dt ~init_latency net specs)

(* ------------------------------------------------------------------ *)
(* Share_queue *)

module Q = Flowsim.Share_queue

(* Pop every entry: (share, link) pairs, least first. *)
let drain q =
  let rec go acc =
    if Q.is_empty q then List.rev acc
    else begin
      let e = (Q.min_share q, Q.min_link q) in
      Q.pop q;
      go (e :: acc)
    end
  in
  go []

let test_queue_order () =
  let q = Q.create ~links:8 ~capacity:8 in
  List.iter (fun l -> Q.push q l (float_of_int l)) [ 5; 1; 3; 2; 4 ];
  Alcotest.(check (list (pair (float 0.) int)))
    "ascending"
    [ (1., 1); (2., 2); (3., 3); (4., 4); (5., 5) ]
    (drain q)

let test_queue_fifo_ties () =
  let q = Q.create ~links:8 ~capacity:8 in
  List.iter (fun l -> Q.push q l 1.) [ 7; 3; 5 ];
  Q.push q 3 1.;
  Alcotest.(check (list int)) "push order on ties" [ 7; 3; 5; 3 ]
    (List.map snd (drain q))

let test_queue_empty () =
  let q = Q.create ~links:2 ~capacity:2 in
  Alcotest.(check bool) "is_empty" true (Q.is_empty q);
  Alcotest.check_raises "pop raises"
    (Invalid_argument "Share_queue.pop: empty queue") (fun () -> Q.pop q);
  Alcotest.check_raises "min_share raises"
    (Invalid_argument "Share_queue.min_share: empty queue") (fun () ->
      ignore (Q.min_share q));
  Alcotest.check_raises "min_link raises"
    (Invalid_argument "Share_queue.min_link: empty queue") (fun () ->
      ignore (Q.min_link q));
  Q.push q 1 0.5;
  Q.kill q 1;
  Q.kill q 0;
  Alcotest.(check bool) "empty after kill" true (Q.is_empty q)

(* 1000 entries from a pool of 2, on 10 links, in falling shares: every
   push after a link's first goes before its head. *)
let test_queue_growth () =
  let q = Q.create ~links:10 ~capacity:2 in
  for i = 999 downto 0 do
    Q.push q (i mod 10) (float_of_int i)
  done;
  Alcotest.(check (list (pair (float 0.) int)))
    "pop order"
    (List.init 1000 (fun i -> (float_of_int i, i mod 10)))
    (drain q)

let test_queue_peek_stable () =
  let q = Q.create ~links:4 ~capacity:4 in
  Q.push q 2 2.;
  Q.push q 1 1.;
  Alcotest.(check (float 0.)) "min_share" 1. (Q.min_share q);
  Alcotest.(check int) "min_link" 1 (Q.min_link q);
  Alcotest.(check (float 0.)) "min_share again" 1. (Q.min_share q);
  Alcotest.(check (list int)) "nothing removed" [ 1; 2 ] (List.map snd (drain q))

(* +0 and −0 compare equal, so they are one share: their entries pop
   together in push order, and the share reads +0. *)
let test_queue_signed_zero () =
  let q = Q.create ~links:8 ~capacity:8 in
  List.iter (fun (l, s) -> Q.push q l s) [ (1, -0.); (2, 0.); (3, 1.); (4, -0.); (5, -1.) ];
  Q.pop q;
  Alcotest.(check bool) "min_share is +0" false (Float.sign_bit (Q.min_share q));
  Alcotest.(check (list int)) "links" [ 1; 2; 4; 3 ] (List.map snd (drain q))

(* Hundreds of distinct shares from a queue made for one entry, so the
   pool, the share table and the heap of shares all grow, with kills
   and pops between the pushes, over three rounds with a clear between:
   every pop takes the least live (share, seq), and what is left drains
   in that order. *)
let test_queue_many_shares () =
  let q = Q.create ~links:50 ~capacity:1 in
  for round = 0 to 2 do
    Q.clear q;
    let model = ref [] in
    let least () =
      List.fold_left
        (fun a ((s, sq, _) as e) ->
          match a with
          | Some (s', sq', _) when s' < s || (s' = s && sq' < sq) -> a
          | _ -> Some e)
        None !model
    in
    for i = 0 to 1999 do
      let l = ((i * 7) + round) mod 50 in
      let s = float_of_int ((i * 7919 * (round + 1)) mod 701) /. 8. in
      Q.push q l s;
      model := (s, i, l) :: !model;
      if i mod 37 = 36 then begin
        let k = (i + round) mod 50 in
        Q.kill q k;
        model := List.filter (fun (_, _, l') -> l' <> k) !model
      end;
      if i mod 101 = 100 then
        match least () with
        | Some (s, sq, l) ->
            Alcotest.(check (pair (float 0.) int))
              (Printf.sprintf "round %d, pop after push %d" round i)
              (s, l)
              (Q.min_share q, Q.min_link q);
            Q.pop q;
            model := List.filter (fun (_, sq', _) -> sq' <> sq) !model
        | None -> ()
    done;
    let rest =
      List.sort (fun (s, sq, _) (s', sq', _) -> compare (s, sq) (s', sq')) !model
      |> List.map (fun (s, _, l) -> (s, l))
    in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: hundreds of shares left" round)
      true
      (List.length (List.sort_uniq compare (List.map fst rest)) > 500);
    Alcotest.(check (list (pair (float 0.) int)))
      (Printf.sprintf "round %d: drain" round)
      rest (drain q)
  done

(* Entries live in flat arrays: once the pool has grown, pushes, pops
   and kills allocate nothing. The shares are boxed up front, as a
   caller's computed float would be at the call from another module. *)
let test_queue_alloc_free () =
  let n = 10_000 and links = 100 in
  let q = Q.create ~links ~capacity:n in
  let shares = List.init n (fun i -> float_of_int ((i * 7919) mod 101)) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 2 do
    Q.clear q;
    List.iteri (fun i s -> Q.push q (i mod links) s) shares;
    for l = 0 to (links / 2) - 1 do
      Q.kill q (2 * l)
    done;
    while not (Q.is_empty q) do
      Q.pop q
    done
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d pushes and pops < 100 (got %.0f)" (2 * n)
       words)
    true (words < 100.)

let prop_queue_sorted =
  QCheck.Test.make ~name:"pops sorted" ~count:200
    QCheck.(list (pair (int_bound 9) (float_bound_exclusive 1000.)))
    (fun entries ->
      let q = Q.create ~links:10 ~capacity:1 in
      List.iter (fun (l, s) -> Q.push q l s) entries;
      List.map fst (drain q) = List.sort compare (List.map snd entries))

(* The queue against a list of (share, seq, link) entries under
   pushes with many equal shares, pops, kills and clears, from a pool
   of one entry: each pop takes the least (share, seq), a kill drops
   exactly the link's entries, and a clear restarts [seq]. *)
type queue_op = Push of int * int | Pop | Kill of int | Clear

let queue_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun l s -> Push (l, s)) (int_bound 5) (int_bound 4));
        (3, return Pop);
        (1, map (fun l -> Kill l) (int_bound 5));
        (1, return Clear);
      ])

let print_queue_op = function
  | Push (l, s) -> Printf.sprintf "push %d %d" l s
  | Pop -> "pop"
  | Kill l -> Printf.sprintf "kill %d" l
  | Clear -> "clear"

let queue_model ~kills =
  QCheck.Test.make
    ~name:
      (if kills then "kill and clear keep the rest in order"
       else "pops in (share, push) order")
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_queue_op ops))
       QCheck.Gen.(
         list_size (0 -- 400)
           (if kills then queue_op
            else
              frequency
                [
                  (2, map2 (fun l s -> Push (l, s)) (int_bound 5) (int_bound 4));
                  (1, return Pop);
                ])))
    (fun ops ->
      let q = Q.create ~links:6 ~capacity:1 in
      let model = ref [] and seq = ref 0 and ok = ref true in
      let least () =
        List.fold_left
          (fun a ((s, q, _) as e) ->
            match a with
            | Some (s', q', _) when s' < s || (s' = s && q' < q) -> a
            | _ -> Some e)
          None !model
      in
      let check_min () =
        match least () with
        | None -> ok := !ok && Q.is_empty q
        | Some (s, _, l) ->
            ok := !ok && (not (Q.is_empty q)) && Q.min_share q = s && Q.min_link q = l
      in
      List.iter
        (fun op ->
          (match op with
          | Push (l, s) ->
              let s = float_of_int s in
              Q.push q l s;
              model := (s, !seq, l) :: !model;
              incr seq
          | Pop -> (
              match least () with
              | None -> ()
              | Some (_, sq, _) ->
                  check_min ();
                  Q.pop q;
                  model := List.filter (fun (_, q', _) -> q' <> sq) !model)
          | Kill l ->
              Q.kill q l;
              model := List.filter (fun (_, _, l') -> l' <> l) !model
          | Clear ->
              Q.clear q;
              model := [];
              seq := 0);
          check_min ())
        ops;
      let rest =
        List.sort
          (fun (s, q, _) (s', q', _) ->
            match Float.compare s s' with 0 -> Int.compare q q' | c -> c)
          !model
        |> List.map (fun (s, _, l) -> (s, l))
      in
      !ok && drain q = rest)

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
        Alcotest.test_case "spec order does not matter" `Quick test_spec_order;
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
      @ qsuite [ prop_pdq_capacity_respected; prop_rcp_model; prop_d3_model ] );
    ( "flowsim.share_queue",
      [
        Alcotest.test_case "ascending order" `Quick test_queue_order;
        Alcotest.test_case "fifo on ties" `Quick test_queue_fifo_ties;
        Alcotest.test_case "empty behaviour" `Quick test_queue_empty;
        Alcotest.test_case "growth to 1000" `Quick test_queue_growth;
        Alcotest.test_case "peek is stable" `Quick test_queue_peek_stable;
        Alcotest.test_case "+0 and -0 are one share" `Quick test_queue_signed_zero;
        Alcotest.test_case "hundreds of shares, kills and clears" `Quick
          test_queue_many_shares;
        Alcotest.test_case "allocation-free push and pop" `Quick
          test_queue_alloc_free;
      ]
      @ qsuite
          [ prop_queue_sorted; queue_model ~kills:false; queue_model ~kills:true ]
    );
  ]
