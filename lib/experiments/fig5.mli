(** Figure 5 — realistic datacenter workloads.

    (a) VL2-like commercial-cloud size mixture, random-permutation
        pairing, Poisson arrivals; short flows (< 40 KB) are
        deadline-constrained. Reported: the maximum short-flow arrival
        rate sustaining 99% application throughput vs the mean flow
        deadline.
    (b) Same workload: mean FCT of long flows, normalized to
        PDQ(Full).
    (c) EDU1-like university-datacenter workload: overall mean FCT
        normalized to PDQ(Full). *)

val fig5a : ?jobs:int -> quick:bool -> unit -> Common.table
val fig5b : ?jobs:int -> quick:bool -> unit -> Common.table
val fig5c : ?jobs:int -> quick:bool -> unit -> Common.table
