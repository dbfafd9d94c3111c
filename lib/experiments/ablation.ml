module Runner = Pdq_transport.Runner
module Config = Pdq_core.Config
module Scenario = Pdq_exec.Scenario

let sweep ?jobs ~title ~param_name ~configs ~quick () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let flows = 10 in
  (* One config × run × seed grid: a deadline-constrained run for
     application throughput and an unconstrained one for FCT. *)
  let runs =
    [
      (true, fun r -> 100. *. r.Runner.application_throughput);
      (false, fun r -> r.Runner.mean_fct);
    ]
  in
  let rows =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun (_, config) (deadlines, metric) seed ->
        metric
          (Scenario.run
             (Common.aggregation_scenario ~seed ~deadlines ~flows
                (Runner.Pdq config))))
      configs runs
    |> List.map2
         (fun (label, _) cells ->
           match cells with
           | [ at; fct ] -> [ label; Common.cell at; Common.cell (1e3 *. fct) ]
           | _ -> assert false)
         configs
  in
  {
    Common.title;
    header = [ param_name; "app tput [%]"; "mean FCT [ms]" ];
    rows;
  }

let early_start_k ?jobs ~quick () =
  sweep ?jobs
    ~title:"Ablation - Early Start budget K (10-flow aggregation)"
    ~param_name:"K"
    ~configs:
      (List.map
         (fun k -> (Common.cell k, Config.with_k Config.full k))
         [ 0.; 1.; 2.; 4. ])
    ~quick ()

let probing ?jobs ~quick () =
  sweep ?jobs
    ~title:"Ablation - Suppressed Probing factor X"
    ~param_name:"X"
    ~configs:
      (List.map
         (fun x ->
           ( Common.cell x,
             if x = 0. then
               {
                 Config.full with
                 Config.features =
                   { Config.full.Config.features with Config.suppressed_probing = false };
               }
             else { Config.full with Config.probe_x = x } ))
         [ 0.; 0.1; 0.2; 0.5; 1. ])
    ~quick ()

let dampening ?jobs ~quick () =
  sweep ?jobs
    ~title:"Ablation - dampening window"
    ~param_name:"window[us]"
    ~configs:
      (List.map
         (fun d -> (Common.cell (d *. 1e6), { Config.full with Config.dampening = d }))
         [ 0.; 10e-6; 20e-6; 100e-6; 500e-6 ])
    ~quick ()
