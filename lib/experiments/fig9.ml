module Runner = Pdq_transport.Runner
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Fault_plan = Pdq_faults.Fault_plan
module Builder = Pdq_topo.Builder

(* Query aggregation on the single-bottleneck topology of Fig. 2b with
   standing Bernoulli loss on both directions of the switch<->receiver
   cable: node 0 is the switch, the receiver is the last host. *)
let scenario ~loss_rate ~flows ~deadlines protocol =
  let bottleneck_loss ~seed:_ (built : Builder.built) =
    let hosts = built.Builder.hosts in
    let rx = hosts.(Array.length hosts - 1) in
    Fault_plan.of_events
      [
        ( 0.,
          Fault_plan.Set_loss
            { a = 0; b = rx; model = Pdq_net.Link.Bernoulli loss_rate } );
      ]
  in
  Scenario.make
    ~name:(Printf.sprintf "lossy bottleneck %.1f%%" (loss_rate *. 100.))
    ~horizon:5.
    ~topo:(Scenario.Bottleneck { senders = max 4 flows })
    ~faults:
      (if loss_rate > 0. then
         Scenario.Fault_gen
           {
             label = Printf.sprintf "%g bottleneck loss" loss_rate;
             plan = bottleneck_loss;
           }
       else Scenario.No_faults)
    ~workload:
      (Scenario.Generated
         {
           label = Printf.sprintf "%d aggregation flows" flows;
           specs =
             (fun ~seed ~topo:_ ~hosts ->
               let rx = hosts.(Array.length hosts - 1) in
               (Common.aggregation_workload ~deadlines ~seed ~hosts ~receiver:rx
                  ~flows ())
                 .Common.specs);
         })
    protocol

let run ?jobs ~loss_rate ~flows ~deadlines ~seeds protocol metric =
  let s = scenario ~loss_rate ~flows ~deadlines protocol in
  Sweep.average ?jobs ~seeds (fun seed ->
      metric (Scenario.run (Scenario.with_seed s seed)))

let losses ~quick = if quick then [ 0.; 0.01; 0.03 ] else [ 0.; 0.005; 0.01; 0.02; 0.03 ]

let protocols = [ ("PDQ", Runner.Pdq Pdq_core.Config.full); ("TCP", Runner.Tcp) ]

let fig9a ?jobs ~quick () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let rows =
    List.map
      (fun loss_rate ->
        Common.cell (loss_rate *. 100.)
        :: List.map
             (fun (_, proto) ->
               string_of_int
                 (Common.search_max_flows ~hi:24 ~target:99. (fun flows ->
                      run ?jobs ~loss_rate ~flows ~deadlines:true ~seeds proto
                        (fun r -> 100. *. r.Runner.application_throughput))))
             protocols)
      (losses ~quick)
  in
  {
    Common.title = "Fig 9a - flows at 99% application throughput vs loss rate";
    header = "loss[%]" :: List.map fst protocols;
    rows;
  }

let fig9b ?jobs ~quick () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let flows = 6 in
  let per_row =
    Common.grid ?jobs ~seeds ~cell:Common.mean
      ~run:(fun loss_rate (_, proto) seed ->
        let s = scenario ~loss_rate ~flows ~deadlines:false proto in
        (Scenario.run (Scenario.with_seed s seed)).Runner.mean_fct)
      (losses ~quick) protocols
  in
  let base = List.hd (List.hd per_row) in
  let rows =
    List.map2
      (fun loss_rate row ->
        Common.cell (loss_rate *. 100.)
        :: List.map (fun fct -> Common.cell (fct /. base)) row)
      (losses ~quick) per_row
  in
  {
    Common.title = "Fig 9b - mean FCT normalized to PDQ without loss";
    header = "loss[%]" :: List.map fst protocols;
    rows;
  }

(* Forensic companion: under injected loss the [recov] column should
   absorb the FCT inflation that fig9b only shows as a ratio. *)
let attribution () =
  let loss_rate = 0.01 and flows = 6 and seed = 1 in
  let s =
    Scenario.with_seed
      (scenario ~loss_rate ~flows ~deadlines:false (snd (List.hd protocols)))
      seed
  in
  Common.attribution_table
    ~title:
      (Printf.sprintf
         "Fig 9 forensics - PDQ FCT attribution [ms] at %.1f%% loss, %d \
          flows, seed %d"
         (loss_rate *. 100.) flows seed)
    (Common.attribution_report s)
