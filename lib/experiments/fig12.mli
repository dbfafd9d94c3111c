(** Figure 12 — flow aging (§7): the operator-overridable comparator
    divides a flow's expected transmission time by 2^(α·wait/100 ms) so
    starving flows gain criticality. Flow-level simulation on a
    128-server fat-tree with random-permutation traffic.

    Expected shape: max FCT drops steeply with the aging rate (≈ −48%
    in the paper) while mean FCT inflates only marginally (≈ +1.7%);
    RCP max/mean shown for reference. *)

val fig12 : ?jobs:int -> ?quick:bool -> unit -> Common.table

val run :
  servers:int ->
  rounds:int ->
  seed:int ->
  Pdq_flowsim.Flowsim.proto ->
  Pdq_flowsim.Flowsim.result
(** One flow-level run on the smallest fat-tree with at least [servers]
    hosts: [rounds] random permutations of deadline-free flows, sizes
    U[2 KB, 998 KB]. The table runs 128 servers and 4 rounds. *)
