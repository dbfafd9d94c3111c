(* Graceful degradation under adversarial packet conditions: how do
   the protocols' tail FCT and deadline performance bend as an
   in-network adversary reorders or corrupts scheduling traffic?

   Two sweeps, each over a condition-probability axis applied as a
   standing condition on every cable ({!Pdq_faults.Fault_plan.degrade}):
   - reordering: each forward packet held for 1 ms with probability p,
     letting later packets overtake (plus the jitter this implies);
   - header corruption: with probability p a forward scheduling header
     entering a switch gets one field scrambled (PDQ rate request or
     pause attribution, RCP rate, D3 allocation).

   Reported per protocol: p99 FCT over completed flows normalized to
   the same protocol's adversary-free run, and deadline-miss
   percentage, averaged over seeds. Each (rate, protocol, seed) run
   is an independent scenario + plan generator pair, so each sweep is
   one [Common.grid]. *)

module Runner = Pdq_transport.Runner
module Builder = Pdq_topo.Builder
module Topology = Pdq_net.Topology
module Scenario = Pdq_exec.Scenario
module Fault_plan = Pdq_faults.Fault_plan

(* The resilience harness's staggered-aggregation scenario shape:
   traffic spread across [window] so it overlaps the standing
   adversarial conditions for the whole run. *)
let scenario_of ~label ~flows ~window ~horizon ~seed protocol =
  Scenario.with_seed
    (Scenario.make ~name:label ~horizon ~topo:Scenario.default_tree
       ~workload:
         (Scenario.Synthetic
            {
              pattern = Scenario.Staggered window;
              flows;
              sizes = Scenario.Uniform_paper { mean_bytes = 100_000 };
              deadlines = Scenario.Exp_deadlines { mean = 0.02; floor = 0.003 };
            })
       protocol)
    seed

type outcome = { p99 : float; miss_pct : float }

let p99_fct (r : Runner.result) =
  let fcts =
    Array.to_list r.Runner.flows
    |> List.filter_map (fun (f : Runner.flow_result) -> f.Runner.fct)
    |> List.sort compare |> Array.of_list
  in
  let n = Array.length fcts in
  if n = 0 then Float.nan
  else fcts.(min (n - 1) (int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1))

let reduce results =
  let n = float_of_int (List.length results) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
  {
    p99 = avg p99_fct;
    miss_pct = avg (fun r -> 100. *. (1. -. r.Runner.application_throughput));
  }

(* One run: the standing conditions on every cable of the built
   topology are the scenario's fault plan. The runner draws the
   adversary's randomness from the run's seed, so runs are independent
   and shippable. *)
let run_cell sc plan_of =
  Scenario.run
    {
      sc with
      Scenario.faults =
        Scenario.Fault_gen
          {
            label = "chaos";
            plan =
              (fun ~seed:_ (built : Builder.built) ->
                plan_of built.Builder.topo);
          };
    }

(* Generic degradation sweep: rows = condition probabilities (first
   row 0, the normalization base), columns = per-protocol normalized
   p99 FCT and deadline-miss %. *)
let sweep ?jobs ~quick ~title ~degrade_of () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let rates = if quick then [ 0.; 0.05 ] else [ 0.; 0.01; 0.05; 0.2 ] in
  let flows = 12 and window = 0.2 and horizon = 3. in
  let rows_cells =
    Common.grid ?jobs ~seeds ~cell:reduce
      ~run:(fun rate (_, proto) seed ->
        run_cell
          (scenario_of ~label:(Common.cell rate) ~flows ~window ~horizon ~seed
             proto)
          (fun topo -> degrade_of ~rate ~links:(Topology.cables topo)))
      rates Common.baseline_protocols
  in
  let base =
    match rows_cells with
    | first :: _ -> List.map (fun o -> Float.max o.p99 1e-9) first
    | [] -> []
  in
  let rows =
    List.map2
      (fun rate row ->
        Common.cell rate
        :: List.concat
             (List.map2
                (fun o b -> [ Common.cell (o.p99 /. b); Common.cell o.miss_pct ])
                row base))
      rates rows_cells
  in
  let header =
    "p"
    :: List.concat_map
         (fun (name, _) -> [ name ^ " p99"; name ^ " miss%" ])
         Common.baseline_protocols
  in
  { Common.title; header; rows }

let reorder_sweep ?jobs ~quick () =
  sweep ?jobs ~quick
    ~title:
      "Chaos - packet reordering (1 ms hold) vs per-packet probability; p99 \
       FCT normalized to the adversary-free run"
    ~degrade_of:(fun ~rate ~links ->
      Fault_plan.degrade ~links ~reorder:(rate, 1e-3) ())
    ()

let corruption_sweep ?jobs ~quick () =
  sweep ?jobs ~quick
    ~title:
      "Chaos - scheduling-header corruption vs per-packet probability; p99 \
       FCT normalized to the adversary-free run"
    ~degrade_of:(fun ~rate ~links ->
      Fault_plan.degrade ~links ~corrupt:rate ())
    ()

let tables ?jobs ~quick () =
  let reorder = reorder_sweep ?jobs ~quick () in
  [ reorder; corruption_sweep ?jobs ~quick () ]
