(** Figure 9 — resilience to packet loss: Bernoulli drops injected on
    both directions of the bottleneck link of a query-aggregation
    workload, sweeping 0–3%.

    (a) deadline-constrained: flows sustained at 99% application
        throughput vs loss rate (PDQ vs TCP);
    (b) deadline-unconstrained: mean FCT normalized to PDQ without
        loss. *)

val scenario :
  loss_rate:float ->
  flows:int ->
  deadlines:bool ->
  Pdq_transport.Runner.protocol ->
  Pdq_exec.Scenario.t
(** [flows] query-aggregation flows to the last host of a
    single-bottleneck topology, with a standing
    {!Pdq_faults.Fault_plan.Set_loss} of [Bernoulli loss_rate] on both
    directions of the switch-receiver cable ([loss_rate = 0.] injects
    nothing). Deadlines follow the paper's exponential law when
    [deadlines]. *)

val fig9a : ?jobs:int -> quick:bool -> unit -> Common.table
val fig9b : ?jobs:int -> quick:bool -> unit -> Common.table

val attribution : unit -> Common.table
(** Per-flow FCT attribution of one PDQ run of the lossy-bottleneck
    scenario: the loss-recovery component isolates what fig9b reports
    only as an FCT ratio. 1% loss, 6 flows, seed 1. *)
