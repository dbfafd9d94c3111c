module Runner = Pdq_transport.Runner
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Config = Pdq_core.Config
module Flowsim = Pdq_flowsim.Flowsim
module Fid = Pdq_check.Fidelity
module Report = Pdq_check.Report

(* Every band was measured on the committed simulator at exactly these
   smoke settings (seeds 1-2) and widened by ~±7% — wide enough to
   survive platform-neutral refactors (the runs are deterministic, so
   any drift is a code change), tight enough that a scheduling or
   rate-allocation regression lands outside. Refresh with
   [bench/main.exe -- --fidelity-dump] after an intentional
   behavioural change, and say so in the commit message. *)

let seeds = [ 1; 2 ]

type measured = {
  outcome : Fid.outcome;
  violations : Report.violation list;
}

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let fct_ms (r : Runner.result) = 1e3 *. r.Runner.mean_fct
let at_pct (r : Runner.result) = 100. *. r.Runner.application_throughput

(* Packet-level entries run seed-per-domain through the full validation
   monitor, so the fidelity gate doubles as the CI invariant sweep:
   drift fails the band, a violated invariant fails the run outright. *)
let checked band scenario metric ~jobs =
  let runs =
    Sweep.map ?jobs
      (fun seed -> Scenario.run_checked (Scenario.with_seed scenario seed))
      seeds
  in
  {
    outcome =
      Fid.eval band (mean (List.map (fun c -> metric c.Scenario.result) runs));
    violations = List.concat_map (fun c -> c.Scenario.violations) runs;
  }

let unchecked band f ~jobs:_ =
  { outcome = Fid.eval band (f ()); violations = [] }

let uniform100k = Scenario.Uniform_paper { mean_bytes = 100_000 }
let paper_deadlines = Scenario.Exp_deadlines { mean = 0.02; floor = 3e-3 }

let synthetic ?topo ~name ~pattern ~flows ?(sizes = uniform100k)
    ?(deadlines = Scenario.No_deadlines) protocol =
  Scenario.make ~name ?topo ~horizon:5.
    ~workload:(Scenario.Synthetic { pattern; flows; sizes; deadlines })
    protocol

(* Fig. 12's flow-level aging run at smoke scale (Fig. 10 is covered
   packet-level through the size-estimation sender below): aging keeps
   the least-critical flows from starving, so its mean FCT pins the
   comparator override path of the flow-level engine. *)
let fig12_aging_fct_ms () =
  let proto =
    Flowsim.Pdq
      {
        Flowsim.pdq_defaults with
        Flowsim.early_termination = false;
        aging_rate = Some 1.0;
      }
  in
  1e3 *. (Fig12.run ~servers:64 ~rounds:2 ~seed:1 proto).Flowsim.mean_fct

let entries () =
  [
    checked
      (Fid.band ~id:"fig3a.pdq_at" ~figure:"fig3a" ~metric:"app_throughput_pct"
         ~lo:84. ~hi:96.5)
      (Common.aggregation_scenario ~flows:10 (Runner.Pdq Config.full))
      at_pct;
    checked
      (Fid.band ~id:"fig4b.pdq_fct" ~figure:"fig4b" ~metric:"mean_fct_ms"
         ~lo:1.06 ~hi:1.23)
      (synthetic ~name:"fidelity fig4b stride" ~pattern:(Scenario.Stride 1)
         ~flows:12 (Runner.Pdq Config.full))
      fct_ms;
    checked
      (Fid.band ~id:"fig5b.pdq_fct" ~figure:"fig5b" ~metric:"mean_fct_ms"
         ~lo:0.86 ~hi:0.99)
      (synthetic ~name:"fidelity fig5b vl2 pairs" ~pattern:Scenario.Random_pairs
         ~flows:12 ~sizes:Scenario.Vl2 (Runner.Pdq Config.full))
      fct_ms;
    checked
      (Fid.band ~id:"fig8a.pdq_at" ~figure:"fig8a" ~metric:"app_throughput_pct"
         ~lo:89. ~hi:100.)
      (synthetic ~name:"fidelity fig8a fat-tree pairs"
         ~topo:(Scenario.Fat_tree_servers { servers = 16 })
         ~pattern:Scenario.Random_pairs ~flows:12 ~deadlines:paper_deadlines
         (Runner.Pdq Config.full))
      at_pct;
    checked
      (Fid.band ~id:"fig9b.pdq_fct" ~figure:"fig9b" ~metric:"mean_fct_ms"
         ~lo:3.34 ~hi:3.85)
      (Fig9.scenario ~loss_rate:0.01 ~flows:6 ~deadlines:false
         (Runner.Pdq Config.full))
      fct_ms;
    checked
      (Fid.band ~id:"fig10.est_fct" ~figure:"fig10" ~metric:"mean_fct_ms"
         ~lo:7.46 ~hi:8.58)
      (synthetic ~name:"fidelity fig10 size estimation"
         ~topo:(Scenario.Bottleneck { senders = 10 })
         ~pattern:Scenario.Aggregation ~flows:10
         (Runner.Pdq_estimated { config = Config.full; quantum = 50_000 }))
      fct_ms;
    checked
      (Fid.band ~id:"fig11a.mpdq_fct" ~figure:"fig11a" ~metric:"mean_fct_ms"
         ~lo:1.1 ~hi:1.27)
      (synthetic ~name:"fidelity fig11a bcube perm"
         ~topo:(Scenario.Bcube { n = 2; k = 3 })
         ~pattern:Scenario.Random_permutation ~flows:16
         (Runner.mpdq ~subflows:2 ()))
      fct_ms;
    unchecked
      (Fid.band ~id:"fig12.aging_fct" ~figure:"fig12" ~metric:"mean_fct_ms"
         ~lo:10.77 ~hi:12.4)
      fig12_aging_fct_ms;
  ]

let run ?jobs ppf =
  let measured = List.map (fun eval -> eval ~jobs) (entries ()) in
  let outcomes = List.map (fun m -> m.outcome) measured in
  Fid.pp_outcomes ppf outcomes;
  let violations = List.concat_map (fun m -> m.violations) measured in
  if violations <> [] then
    Format.fprintf ppf "%a@." Report.pp_list violations;
  Format.pp_print_flush ppf ();
  Fid.all_ok outcomes && violations = []

let dump ?jobs ppf =
  List.iter
    (fun eval ->
      let m = eval ~jobs in
      Format.fprintf ppf "%s %s %s measured %.6g (band [%g, %g])@."
        m.outcome.Fid.band.Fid.id m.outcome.Fid.band.Fid.figure
        m.outcome.Fid.band.Fid.metric m.outcome.Fid.value
        m.outcome.Fid.band.Fid.lo m.outcome.Fid.band.Fid.hi)
    (entries ());
  Format.pp_print_flush ppf ()
