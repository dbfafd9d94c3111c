(** Design-choice ablations called out in DESIGN.md (not paper
    figures): the Early Start budget K, Suppressed Probing's X factor
    and the dampening window, each swept on the query-aggregation
    workload. [jobs] parallelizes the config × seed grid. *)

val early_start_k : ?jobs:int -> quick:bool -> unit -> Common.table
(** Sweep K ∈ {0, 1, 2, 4}: K=0 disables concurrent switchover (low
    utilization), large K admits too much and bloats queues. *)

val probing : ?jobs:int -> quick:bool -> unit -> Common.table
(** Sweep the suppressed-probing factor X (0 = probe every RTT). *)

val dampening : ?jobs:int -> quick:bool -> unit -> Common.table
(** Sweep the dampening window. *)
