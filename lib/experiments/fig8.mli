(** Figure 8 — scalability across topologies (fat-tree, BCube,
    Jellyfish), packet-level vs flow-level simulation.

    Each packet-level cell is a {!Pdq_exec.Scenario.run}, and the
    flow-level cell beside it is a {!Common.flow_level} run on the same
    topology spec with the same spec generator, so both simulators see
    the same network and the same flows.

    (a) fat-tree, deadline-constrained: flows at 99% application
        throughput vs network size (random pairs; 16–128 servers quick,
        16–1024 full; packet level up to 54 servers quick, 128 full);
    (b) fat-tree, deadline-unconstrained: mean FCT vs size (random
        permutation, 4 flows per server quick, 10 full);
    (c) BCube (dual-port servers) and (d) Jellyfish: same as (b);
    (e) CDF of per-flow RCP FCT / PDQ FCT at ~128 servers, flow
        level. *)

val fig8a : ?jobs:int -> quick:bool -> unit -> Common.table
val fig8b : ?jobs:int -> quick:bool -> unit -> Common.table
val fig8c : ?jobs:int -> quick:bool -> unit -> Common.table
val fig8d : ?jobs:int -> quick:bool -> unit -> Common.table
val fig8e : ?jobs:int -> quick:bool -> unit -> Common.table
