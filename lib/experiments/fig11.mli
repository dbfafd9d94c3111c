(** Figure 11 — Multipath PDQ on BCube(2,3) (16 four-port servers)
    with random-permutation traffic.

    (a) mean FCT vs load (fraction of hosts sending), PDQ vs M-PDQ
        with 3 subflows;
    (b) mean FCT vs number of subflows at full load;
    (c) flows at 99% application throughput vs number of subflows. *)

val fig11a : ?jobs:int -> quick:bool -> unit -> Common.table
val fig11bc : ?jobs:int -> quick:bool -> unit -> Common.table
