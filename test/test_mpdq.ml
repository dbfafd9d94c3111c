(* Tests for the multipath pieces: the interval-based receive buffer,
   BCube address-based parallel paths, and M-PDQ end-to-end invariants
   (no byte lost or duplicated across subflow load shifts), plus the
   §4 convergence property at packet level. *)

module Rx_buffer = Pdq_transport.Rx_buffer
module Builder = Pdq_topo.Builder
module Runner = Pdq_transport.Runner
module Scenario = Pdq_exec.Scenario
module Context = Pdq_transport.Context
module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Units = Pdq_engine.Units

(* ------------------------------------------------------------------ *)
(* Rx_buffer *)

let test_rx_in_order () =
  let b = Rx_buffer.create ~size:5000 ~segment:1444 () in
  Rx_buffer.on_data b ~seq:0 ~bytes:1444;
  Alcotest.(check int) "cum" 1444 (Rx_buffer.cumulative_ack b);
  Rx_buffer.on_data b ~seq:1444 ~bytes:1444;
  Rx_buffer.on_data b ~seq:2888 ~bytes:1444;
  Rx_buffer.on_data b ~seq:4332 ~bytes:668;
  Alcotest.(check bool) "complete" true (Rx_buffer.complete b);
  Alcotest.(check int) "all bytes" 5000 (Rx_buffer.received_bytes b)

let test_rx_out_of_order () =
  let b = Rx_buffer.create ~size:5000 ~segment:1444 () in
  Rx_buffer.on_data b ~seq:1444 ~bytes:1444;
  Alcotest.(check int) "hole keeps cum at 0" 0 (Rx_buffer.cumulative_ack b);
  Alcotest.(check int) "but bytes counted" 1444 (Rx_buffer.received_bytes b);
  Rx_buffer.on_data b ~seq:0 ~bytes:1444;
  Alcotest.(check int) "hole filled" 2888 (Rx_buffer.cumulative_ack b)

let test_rx_duplicates () =
  let b = Rx_buffer.create ~size:5000 ~segment:1444 () in
  Rx_buffer.on_data b ~seq:0 ~bytes:1444;
  Rx_buffer.on_data b ~seq:0 ~bytes:1444;
  Rx_buffer.on_data b ~seq:722 ~bytes:1444 (* overlapping *);
  Alcotest.(check int) "no double counting" 2166 (Rx_buffer.received_bytes b)

let test_rx_unaligned () =
  (* Arbitrary boundaries, as created by M-PDQ resizes. *)
  let b = Rx_buffer.create ~size:4000 ~segment:1444 () in
  Rx_buffer.on_data b ~seq:0 ~bytes:1000;
  Rx_buffer.on_data b ~seq:1000 ~bytes:777;
  Rx_buffer.on_data b ~seq:1777 ~bytes:2223;
  Alcotest.(check bool) "complete across odd boundaries" true
    (Rx_buffer.complete b)

let test_rx_resize () =
  let b = Rx_buffer.create ~capacity:10_000 ~size:4000 ~segment:1444 () in
  Rx_buffer.on_data b ~seq:0 ~bytes:4000;
  Alcotest.(check bool) "complete at initial size" true (Rx_buffer.complete b);
  Rx_buffer.set_size b 8000;
  Alcotest.(check bool) "grown: incomplete again" false (Rx_buffer.complete b);
  Rx_buffer.on_data b ~seq:4000 ~bytes:4000;
  Alcotest.(check bool) "complete at grown size" true (Rx_buffer.complete b);
  Alcotest.check_raises "cannot shrink below received"
    (Invalid_argument "Rx_buffer.set_size: below received") (fun () ->
      Rx_buffer.set_size b 6000)

let test_rx_beyond_size_dropped () =
  let b = Rx_buffer.create ~capacity:10_000 ~size:2000 ~segment:1444 () in
  Rx_buffer.on_data b ~seq:1500 ~bytes:1444;
  Alcotest.(check int) "clipped at size" 500 (Rx_buffer.received_bytes b)

let prop_rx_random_arrivals =
  QCheck.Test.make ~name:"random segment arrivals complete exactly once"
    ~count:200
    QCheck.(pair (int_range 1 30) small_nat)
    (fun (nseg, seed) ->
      let segment = 100 in
      let size = nseg * segment in
      let b = Rx_buffer.create ~size ~segment () in
      let rng = Rng.create seed in
      let order = Rng.permutation rng nseg in
      Array.iter
        (fun i ->
          Rx_buffer.on_data b ~seq:(i * segment) ~bytes:segment;
          (* Duplicate delivery of the same segment. *)
          if Rng.bool rng 0.3 then
            Rx_buffer.on_data b ~seq:(i * segment) ~bytes:segment)
        order;
      Rx_buffer.complete b && Rx_buffer.received_bytes b = size)

(* ------------------------------------------------------------------ *)
(* BCube address-based paths *)

let with_bcube ~n ~k f =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n ~k () in
  f built

let test_bcube_paths_valid () =
  with_bcube ~n:2 ~k:3 (fun built ->
      let hosts = built.Builder.hosts in
      let paths = Builder.bcube_paths ~n:2 ~k:3 built ~src:hosts.(0) ~dst:hosts.(15) in
      Alcotest.(check bool) "multiple parallel paths" true (List.length paths >= 2);
      List.iter
        (fun path ->
          Alcotest.(check int) "starts at src" hosts.(0) path.(0);
          Alcotest.(check int) "ends at dst" hosts.(15)
            path.(Array.length path - 1);
          (* Every consecutive pair must be adjacent in the topology. *)
          for i = 0 to Array.length path - 2 do
            ignore
              (Pdq_net.Topology.cable built.Builder.topo ~a:path.(i)
                 ~b:path.(i + 1))
          done)
        paths)

let test_bcube_paths_port_diversity () =
  with_bcube ~n:2 ~k:3 (fun built ->
      let hosts = built.Builder.hosts in
      (* Hosts differing in all 4 digits: 4 parallel paths leaving via
         4 distinct first hops (one per server port). *)
      let paths = Builder.bcube_paths ~n:2 ~k:3 built ~src:hosts.(0) ~dst:hosts.(15) in
      let first_hops =
        List.map (fun p -> p.(1)) paths |> List.sort_uniq compare
      in
      Alcotest.(check int) "4 distinct first hops" 4 (List.length first_hops))

let test_bcube_paths_single_digit () =
  with_bcube ~n:2 ~k:3 (fun built ->
      let hosts = built.Builder.hosts in
      (* Hosts differing in one digit: exactly one 2-hop path. *)
      let paths = Builder.bcube_paths ~n:2 ~k:3 built ~src:hosts.(0) ~dst:hosts.(1) in
      Alcotest.(check int) "one path" 1 (List.length paths);
      Alcotest.(check int) "host-switch-host" 3 (Array.length (List.hd paths)))

let prop_bcube_paths_all_pairs =
  QCheck.Test.make ~name:"bcube paths valid for every pair" ~count:60
    QCheck.(pair (int_range 0 15) (int_range 0 15))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      with_bcube ~n:2 ~k:3 (fun built ->
          let hosts = built.Builder.hosts in
          let paths =
            Builder.bcube_paths ~n:2 ~k:3 built ~src:hosts.(a) ~dst:hosts.(b)
          in
          paths <> []
          && List.for_all
               (fun p ->
                 p.(0) = hosts.(a)
                 && p.(Array.length p - 1) = hosts.(b)
                 && Array.length p mod 2 = 1 (* host/switch alternation *))
               paths))

(* ------------------------------------------------------------------ *)
(* M-PDQ end-to-end invariants *)

let run_mpdq ~subflows ~with_paths specs_of =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:2 ~k:3 () in
  let paths =
    if with_paths then
      Some (fun ~src ~dst -> Builder.bcube_paths ~n:2 ~k:3 built ~src ~dst)
    else None
  in
  let r =
    Runner.execute
      ~options:{ Runner.default_options with Runner.horizon = 5. }
      ~topo:built.Builder.topo
      (Runner.mpdq ?paths ~subflows ())
      (specs_of built.Builder.hosts)
  in
  r

let spec ?deadline ~src ~dst ~size () =
  { Context.src; dst; size; deadline; start = 0. }

let test_mpdq_exact_delivery () =
  (* Sizes that do not divide evenly by the subflow count or the
     segment size: rebalancing must still deliver every byte exactly
     once (the receiver-side interval set enforces "at most once"; the
     completion enforces "at least once"). *)
  List.iter
    (fun (subflows, size) ->
      let r =
        run_mpdq ~subflows ~with_paths:true (fun hosts ->
            [ spec ~src:hosts.(0) ~dst:hosts.(15) ~size () ])
      in
      Alcotest.(check int)
        (Printf.sprintf "k=%d size=%d completes" subflows size)
        1 r.Runner.completed)
    [ (2, 100_001); (3, 299_999); (4, 1_000_003); (7, 54_321) ]

let test_mpdq_faster_than_pdq_light_load () =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:2 ~k:3 () in
  let hosts = built.Builder.hosts in
  let mk proto =
    let sim = Sim.create () in
    let built = Builder.bcube ~sim ~n:2 ~k:3 () in
    Runner.execute
      ~options:{ Runner.default_options with Runner.horizon = 5. }
      ~topo:built.Builder.topo proto
      [
        spec ~src:hosts.(0) ~dst:hosts.(15) ~size:(Units.mbyte 1.) ();
        spec ~src:hosts.(3) ~dst:hosts.(12) ~size:(Units.mbyte 1.) ();
      ]
  in
  let paths ~src ~dst = Builder.bcube_paths ~n:2 ~k:3 built ~src ~dst in
  let pdq = mk (Runner.Pdq Pdq_core.Config.full) in
  let mpdq = mk (Runner.mpdq ~paths ~subflows:3 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "M-PDQ (%.2fms) beats PDQ (%.2fms) at light load"
       (1e3 *. mpdq.Runner.mean_fct) (1e3 *. pdq.Runner.mean_fct))
    true
    (mpdq.Runner.mean_fct < pdq.Runner.mean_fct)

let test_mpdq_flow_level_early_termination () =
  (* An impossible deadline: the coordinator terminates the whole
     group instead of leaving subflows running. *)
  let r =
    run_mpdq ~subflows:3 ~with_paths:true (fun hosts ->
        [
          spec ~src:hosts.(0) ~dst:hosts.(15) ~size:(Units.mbyte 4.)
            ~deadline:0.004 ();
        ])
  in
  Alcotest.(check bool) "terminated" true r.Runner.flows.(0).Runner.terminated;
  Alcotest.(check bool) "not counted as met" false
    r.Runner.flows.(0).Runner.met_deadline

(* ------------------------------------------------------------------ *)
(* §4 convergence at packet level: stable workload on one bottleneck
   reaches the equilibrium "driver sends, others paused" within a few
   RTTs and stays there. *)

let test_equilibrium_single_driver () =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders:4 () in
  let hosts = built.Builder.hosts in
  let specs =
    List.init 4 (fun i ->
        spec ~src:hosts.(i) ~dst:rx ~size:(Units.mbyte 2.) ())
  in
  let mem = Pdq_telemetry.Trace.memory () in
  let options =
    {
      Runner.default_options with
      Runner.horizon = 0.012;
      telemetry = { Runner.no_telemetry with Runner.sinks = [ mem ] };
    }
  in
  let r =
    Runner.execute ~options ~topo:built.Builder.topo (Runner.Pdq Pdq_core.Config.full)
      specs
  in
  (* No 2 MB flow can finish inside the 12 ms horizon, so the run
     goes to the horizon although it stops once every flow is done. *)
  Alcotest.(check int) "no flow completes" 0 r.Runner.completed;
  (* After a convergence window of Pmax+1 RTTs (~1.5ms here, generous:
     3ms), the driver must carry nearly all delivered bytes. Paused
     flows may still pick up slivers while the rate controller's C
     oscillates around the committed rates, so the equilibrium claim
     is about the byte share, not strict silence. The per-flow byte
     series is reconstructed from the [Flow_rx] trace events. *)
  let per_flow = Hashtbl.create 8 in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Pdq_telemetry.Trace.Flow_rx { flow; bytes }
        when t > 0.003 && t < 0.010 ->
          Hashtbl.replace per_flow flow
            ((match Hashtbl.find_opt per_flow flow with
             | Some b -> b
             | None -> 0.)
            +. float_of_int bytes)
      | _ -> ())
    (Pdq_telemetry.Trace.memory_events mem);
  let shares = Hashtbl.fold (fun _ b acc -> b :: acc) per_flow [] in
  let total = List.fold_left ( +. ) 0. shares in
  let top = List.fold_left max 0. shares in
  Alcotest.(check bool)
    (Printf.sprintf "driver share %.3f > 0.9" (top /. total))
    true
    (total > 0. && top /. total > 0.9)

(* ------------------------------------------------------------------ *)
(* Differential: M-PDQ with one subflow is PDQ *)

(* With one subflow M-PDQ has no load to shift, so it must schedule
   exactly as PDQ: the same per-flow results, bit for bit, on pdq_sim's
   default workload (12 aggregation flows of mean 100 KB) without
   deadlines. Two cases are left out while their answers are open:
   fat-tree, where M-PDQ's ECMP choice formula may route the one
   subflow on another of the equal-cost paths than PDQ's route; and
   runs with deadlines, where M-PDQ subflows carry no deadline. *)
let test_mpdq_one_subflow_is_pdq () =
  let workload =
    Scenario.Synthetic
      {
        pattern = Scenario.Aggregation;
        flows = 12;
        sizes = Scenario.Uniform_paper { mean_bytes = 100_000 };
        deadlines = Scenario.No_deadlines;
      }
  in
  let flows protocol topo seed =
    let r = Scenario.run (Scenario.make ~topo ~seed ~workload protocol) in
    Array.map
      (fun (f : Runner.flow_result) ->
        let s = f.Runner.spec in
        Printf.sprintf "%d->%d %dB start %h fct %s met %b term %b abort %b"
          s.Context.src s.Context.dst s.Context.size s.Context.start
          (match f.Runner.fct with
          | Some t -> Printf.sprintf "%h" t
          | None -> "-")
          f.Runner.met_deadline f.Runner.terminated f.Runner.aborted)
      r.Runner.flows
  in
  List.iter
    (fun name ->
      let topo = Result.get_ok (Scenario.topo_of_string name) in
      List.iter
        (fun seed ->
          Alcotest.(check (array string))
            (Printf.sprintf "%s seed %d" name seed)
            (flows (Runner.Pdq Pdq_core.Config.full) topo seed)
            (flows (Runner.mpdq ~subflows:1 ()) topo seed))
        [ 1; 2; 3 ])
    [ "tree"; "bottleneck"; "jellyfish" ]

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "mpdq.rx_buffer",
      [
        Alcotest.test_case "in order" `Quick test_rx_in_order;
        Alcotest.test_case "out of order" `Quick test_rx_out_of_order;
        Alcotest.test_case "duplicates" `Quick test_rx_duplicates;
        Alcotest.test_case "unaligned boundaries" `Quick test_rx_unaligned;
        Alcotest.test_case "resize" `Quick test_rx_resize;
        Alcotest.test_case "beyond size clipped" `Quick test_rx_beyond_size_dropped;
      ]
      @ qsuite [ prop_rx_random_arrivals ] );
    ( "mpdq.bcube_paths",
      [
        Alcotest.test_case "paths valid" `Quick test_bcube_paths_valid;
        Alcotest.test_case "port diversity" `Quick test_bcube_paths_port_diversity;
        Alcotest.test_case "single-digit pair" `Quick test_bcube_paths_single_digit;
      ]
      @ qsuite [ prop_bcube_paths_all_pairs ] );
    ( "mpdq.protocol",
      [
        Alcotest.test_case "exact delivery under rebalancing" `Quick
          test_mpdq_exact_delivery;
        Alcotest.test_case "faster at light load" `Quick
          test_mpdq_faster_than_pdq_light_load;
        Alcotest.test_case "flow-level early termination" `Quick
          test_mpdq_flow_level_early_termination;
        Alcotest.test_case "one subflow equals PDQ" `Quick
          test_mpdq_one_subflow_is_pdq;
      ] );
    ( "pdq.formal",
      [
        Alcotest.test_case "equilibrium: single driver sends" `Quick
          test_equilibrium_single_driver;
      ] );
  ]
