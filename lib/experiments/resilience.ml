(* Resilience under injected faults: how gracefully does each protocol
   degrade when the fabric misbehaves?

   Three sweeps, each over a fault-intensity axis:
   - bursty loss: a standing Gilbert-Elliott channel on the bottleneck
     cable with a fixed ~5% average loss whose burst length grows —
     random scattered loss vs. long black-out bursts;
   - link failures: memoryless fail/repair flapping of switch-switch
     cables on a fat-tree, where ECMP re-pinning can route around the
     outage;
   - switch reboots: crash-reboots wiping per-flow scheduler soft
     state, which PDQ must rebuild from traversing headers.

   Reported per protocol: mean FCT over completed flows normalized to
   the same protocol's fault-free run, deadline-miss percentage, and
   watchdog aborts (dead-path give-ups), averaged over seeds.

   Each (intensity, protocol, seed) run is an independent scenario,
   so a whole sweep is one [Common.grid]. *)

module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Builder = Pdq_topo.Builder
module Fault_plan = Pdq_faults.Fault_plan
module Rng = Pdq_engine.Rng
module Link = Pdq_net.Link
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist
module Pattern = Pdq_workload.Pattern
module Scenario = Pdq_exec.Scenario

(* Aggregation workload with starts staggered across [window] so the
   traffic actually overlaps the injected faults instead of finishing
   before the first event fires. Each flow draws its start, then its
   deadline, then its size. *)
let workload ~seed ~hosts ~receiver ~flows ~window =
  let rng = Rng.create (0xFA17 + (seed * 7919)) in
  let sizes = Size_dist.uniform_paper ~mean_bytes:100_000 in
  let ddist = Deadline_dist.exponential ~mean:0.02 () in
  let pairs =
    Array.of_list (Pattern.aggregation ~hosts ~receiver ~flows)
  in
  List.init flows (fun i ->
      let p = pairs.(i mod Array.length pairs) in
      let start = Rng.float rng *. window in
      let deadline = Some (Deadline_dist.sample ddist rng) in
      let size = Size_dist.sample sizes rng in
      { Context.src = p.Pattern.src; dst = p.Pattern.dst; size; deadline;
        start })

type outcome = { fct : float; miss_pct : float; aborts : float }

(* A row of the sweep: fault intensity label, topology family, and the
   pure per-seed fault-plan generator. *)
type row_spec = {
  label : string;
  topo : Scenario.topo;
  plan_of : seed:int -> Builder.built -> Fault_plan.t;
}

(* The fault-free first row of a sweep, its normalization base. *)
let clean_row label topo =
  { label; topo; plan_of = (fun ~seed:_ _ -> Fault_plan.empty) }

(* Memoryless fail/repair of a k=4 fat-tree's switch-switch cables. *)
let flapping_row label mtbf =
  {
    label;
    topo = Scenario.Fat_tree { k = 4 };
    plan_of =
      (fun ~seed (b : Builder.built) ->
        Fault_plan.link_flaps
          (Rng.create (0x11AB + seed))
          ~links:(Fault_plan.switch_cables b.Builder.topo)
          ~mtbf ~mttr:0.03 ~until:0.5);
  }

let scenario_of_row { label; topo; plan_of } ~flows ~window ~horizon protocol =
  Scenario.make ~name:label ~horizon ~topo
    ~faults:(Scenario.Fault_gen { label; plan = plan_of })
    ~workload:
      (Scenario.Generated
         {
           label = Printf.sprintf "%d staggered aggregation flows" flows;
           specs =
             (fun ~seed ~topo:_ ~hosts ->
               workload ~seed ~hosts ~receiver:hosts.(0) ~flows ~window);
         })
    protocol

let reduce_cell results =
  let n = float_of_int (List.length results) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
  let counters =
    (* Summed over seeds, for the per-cause report. *)
    let t = Hashtbl.create 16 in
    List.iter
      (fun (r : Runner.result) ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace t k (v + Option.value ~default:0 (Hashtbl.find_opt t k)))
          r.Runner.counters)
      results;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare
  in
  ( {
      fct = avg (fun r -> r.Runner.mean_fct);
      miss_pct = avg (fun r -> 100. *. (1. -. r.Runner.application_throughput));
      aborts = avg (fun r -> float_of_int r.Runner.aborted);
    },
    counters )

(* Generic sweep: rows = fault intensities (first one fault-free, used
   as the normalization base), columns = per-protocol normalized FCT,
   miss%% and aborts. Returns the table plus the per-cause counters of
   the most intense row for each protocol. *)
let sweep ?jobs ?budget ~quick ~title ~axis ~flows ~window ~horizon rows_spec =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let header =
    axis
    :: List.concat_map
         (fun (name, _) ->
           [ name ^ " fct"; name ^ " miss%"; name ^ " abrt" ])
         Common.baseline_protocols
  in
  let cells =
    Common.grid ?jobs ?budget ~seeds ~cell:reduce_cell
      ~run:(fun row (_, proto) seed ->
        Scenario.run
          (Scenario.with_seed
             (scenario_of_row row ~flows ~window ~horizon proto)
             seed))
      rows_spec Common.baseline_protocols
    |> List.map2 (fun row cells -> (row.label, cells)) rows_spec
  in
  let base =
    match cells with
    | (_, first_row) :: _ ->
        List.map (fun ({ fct; _ }, _) -> max fct 1e-9) first_row
    | [] -> []
  in
  let rows =
    List.map
      (fun (label, row) ->
        label
        :: List.concat
             (List.map2
                (fun (o, _) b ->
                  [
                    Common.cell (o.fct /. b);
                    Common.cell o.miss_pct;
                    Common.cell o.aborts;
                  ])
                row base))
      cells
  in
  let worst_counters =
    match List.rev cells with
    | (_, last_row) :: _ ->
        List.map2
          (fun (name, _) (_, counters) -> (name, counters))
          Common.baseline_protocols last_row
    | [] -> []
  in
  ({ Common.title; header; rows }, worst_counters)

(* 1. Bursty loss on the tree's root-side cables: Gilbert-Elliott with
   ~5% stationary loss, sweeping the mean burst length (packets). *)
let loss_burst_sweep ?jobs ?budget ~quick () =
  let burst_lengths = if quick then [ 1.; 20. ] else [ 1.; 5.; 20.; 80. ] in
  let ge_of_burst burst =
    let p_bg = 1. /. burst in
    let stationary_bad = 0.05 in
    {
      Link.p_gb = p_bg *. stationary_bad /. (1. -. stationary_bad);
      p_bg;
      loss_good = 0.;
      loss_bad = 1.;
    }
  in
  let bursty burst =
    {
      label = Common.cell burst;
      topo = Scenario.default_tree;
      plan_of =
        (fun ~seed:_ (b : Builder.built) ->
          Fault_plan.of_events
            (List.map
               (fun (a, bb) ->
                 ( 0.,
                   Fault_plan.Set_loss
                     { a; b = bb; model = Link.Gilbert (ge_of_burst burst) } ))
               (Fault_plan.switch_cables b.Builder.topo)));
    }
  in
  sweep ?jobs ?budget ~quick
    ~title:"Resilience - 5% Gilbert-Elliott loss vs mean burst length [pkts]"
    ~axis:"burst" ~flows:12 ~window:0.1 ~horizon:3.
    (clean_row "0" Scenario.default_tree :: List.map bursty burst_lengths)

(* 2. Link flapping on a fat-tree: memoryless fail/repair of
   switch-switch cables; ECMP flows are re-pinned around the outage. *)
let link_failure_sweep ?jobs ?budget ~quick () =
  let mtbfs = if quick then [ 0.3 ] else [ 1.; 0.3; 0.1 ] in
  sweep ?jobs ?budget ~quick
    ~title:"Resilience - fat-tree link flapping vs cable MTBF [s] (MTTR 30ms)"
    ~axis:"mtbf" ~flows:16 ~window:0.2 ~horizon:3.
    (clean_row "inf" (Scenario.Fat_tree { k = 4 })
    :: List.map (fun mtbf -> flapping_row (Common.cell mtbf) mtbf) mtbfs)

(* 3. Switch crash-reboots on the tree: per-flow scheduler soft state
   is wiped and must be rebuilt from the headers in flight. *)
let switch_reboot_sweep ?jobs ?budget ~quick () =
  let mtbfs = if quick then [ 0.05 ] else [ 0.5; 0.1; 0.02 ] in
  let rebooting mtbf =
    {
      label = Common.cell mtbf;
      topo = Scenario.default_tree;
      plan_of =
        (fun ~seed (b : Builder.built) ->
          Fault_plan.switch_reboots
            (Rng.create (0x5EB0 + seed))
            ~switches:(Fault_plan.switches b.Builder.topo) ~mtbf ~until:0.5);
    }
  in
  sweep ?jobs ?budget ~quick
    ~title:"Resilience - switch crash-reboots vs switch MTBF [s]"
    ~axis:"mtbf" ~flows:12 ~window:0.2 ~horizon:3.
    (clean_row "inf" Scenario.default_tree :: List.map rebooting mtbfs)

(* Forensic view of the link-flapping axis: the [down] column shows
   fault-induced downtime directly instead of inferring it from FCT
   inflation against the clean row. *)
let attribution () =
  let mtbf = 0.1 and seed = 1 in
  let row =
    flapping_row (Printf.sprintf "flaps mtbf=%s" (Common.cell mtbf)) mtbf
  in
  let s =
    Scenario.with_seed
      (scenario_of_row row ~flows:16 ~window:0.2 ~horizon:3.
         (snd (List.hd Common.baseline_protocols)))
      seed
  in
  Common.attribution_table
    ~title:
      (Printf.sprintf
         "Resilience forensics - PDQ FCT attribution [ms] under link \
          flapping (MTBF %s s, MTTR 30 ms, seed %d)"
         (Common.cell mtbf) seed)
    (Common.attribution_report s)

let pp_counters counters =
  if counters = [] then "-"
  else
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters)

let counters_table named_counters =
  {
    Common.title = "Per-cause counters at the highest fault intensity";
    header = [ "scenario"; "protocol"; "counters" ];
    rows =
      List.concat_map
        (fun (scenario, per_proto) ->
          List.map
            (fun (proto, counters) ->
              [ scenario; proto; pp_counters counters ])
            per_proto)
        named_counters;
  }

let tables ?jobs ?budget ~quick () =
  let t1, c1 = loss_burst_sweep ?jobs ?budget ~quick () in
  let t2, c2 = link_failure_sweep ?jobs ?budget ~quick () in
  let t3, c3 = switch_reboot_sweep ?jobs ?budget ~quick () in
  [
    t1;
    t2;
    t3;
    counters_table [ ("loss-burst", c1); ("link-flap", c2); ("reboot", c3) ];
    attribution ();
  ]
