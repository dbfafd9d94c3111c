(** Figure 3 — query aggregation on the default 12-server tree.

    (a) application throughput vs number of concurrent flows;
    (b) application throughput vs mean flow size (3 flows);
    (c) number of flows at 99% application throughput vs mean deadline;
    (d) mean FCT normalized to optimal vs number of flows (no
        deadlines);
    (e) normalized FCT vs mean flow size (3 flows, no deadlines).

    [quick] trims sweep points and seeds so the whole bench stays
    interactive; the shapes are unaffected. [jobs] spreads the
    (row × protocol × seed) scenario grid over that many domains —
    panels (a)/(b)/(d)/(e) flatten the whole grid, (c) parallelizes
    only each binary-search probe's seed sweep. Results are identical
    for any [jobs]. *)

val fig3a : ?jobs:int -> ?quick:bool -> unit -> Common.table
val fig3b : ?jobs:int -> ?quick:bool -> unit -> Common.table
val fig3c : ?jobs:int -> ?quick:bool -> unit -> Common.table
val fig3d : ?jobs:int -> ?quick:bool -> unit -> Common.table
val fig3e : ?jobs:int -> ?quick:bool -> unit -> Common.table

val attribution : unit -> Common.table
(** Per-flow FCT attribution (via {!Common.attribution_report}) of one
    PDQ(Full) run of the Fig. 3 aggregation scenario — the forensic
    view behind panels (a)/(d): most of a preempted flow's FCT should
    sit in the [paused] column. 6 flows, seed 1. *)
