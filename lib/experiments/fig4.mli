(** Figure 4 — impact of the sending pattern on the 12-server tree:
    Aggregation, Stride(1), Stride(N/2), Staggered(0.7), Staggered(0.3)
    and Random Permutation.

    (a) deadline-constrained: number of flows at 99% application
        throughput, normalized to PDQ(Full);
    (b) deadline-unconstrained: mean FCT normalized to PDQ(Full). *)

val fig4a : ?jobs:int -> quick:bool -> unit -> Common.table
val fig4b : ?jobs:int -> quick:bool -> unit -> Common.table
