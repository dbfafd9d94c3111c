(** Degradation-curve experiments under the chaos adversary: PDQ vs.
    RCP/D3/TCP as standing packet reordering or scheduling-header
    corruption ramps up on every cable.

    Each sweep reports, per protocol and condition probability: p99
    FCT over completed flows normalized to the same protocol's
    adversary-free run, and deadline-miss percentage, averaged over
    seeds. [jobs] spreads the probability × protocol × seed grid over
    the domain pool. *)

val tables : ?jobs:int -> quick:bool -> unit -> Common.table list
(** Run both sweeps, reordering first, and return their tables. *)
