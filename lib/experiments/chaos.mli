(** Degradation-curve experiments under the chaos adversary: PDQ vs.
    RCP/D3/TCP as standing packet reordering or scheduling-header
    corruption ramps up on every cable.

    Each sweep reports, per protocol and condition probability: p99
    FCT over completed flows normalized to the same protocol's
    adversary-free run, and deadline-miss percentage, averaged over
    seeds. [jobs] spreads the probability × protocol × seed grid over
    the domain pool. *)

val run_all :
  ?jobs:int ->
  ?quick:bool ->
  Format.formatter ->
  unit ->
  unit
(** Run both sweeps and print their tables. *)
