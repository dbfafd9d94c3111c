(** Figure 1 — the motivating example: three flows (sizes 1/2/3,
    deadlines 1/4/6) on a unit-rate bottleneck under fair sharing,
    SJF/EDF and fluid D3 (worst arrival order fB;fA;fC). *)

val completion_table : unit -> Common.table
(** Per-discipline completion time of each flow plus mean FCT. *)

val deadline_table : unit -> Common.table
(** Per-discipline deadline outcomes (met / missed per flow). *)
