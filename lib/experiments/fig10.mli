(** Figure 10 — resilience to inaccurate flow-size information
    (flow-level simulation, query aggregation, 10 deadline-
    unconstrained flows, mean size 100 KB).

    Compares PDQ with perfect flow information, PDQ with a random
    criticality, PDQ with size estimation (criticality refreshed every
    50 KB sent) and RCP, under uniform and Pareto(1.1) flow sizes. *)

val fig10 : ?jobs:int -> quick:bool -> unit -> Common.table
