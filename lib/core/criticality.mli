(** The flow criticality comparator shared by all PDQ switches (§3.3).

    A flow is more critical than another if it has the smaller deadline
    (EDF, to minimize deadline misses); deadline-constrained flows
    outrank unconstrained ones. Ties — and flows without deadlines —
    are broken by smaller expected transmission time (SJF, to minimize
    mean completion time), then by flow ID.

    The operator can override the discipline; {!aged_tx_time} implements
    the flow-aging variant of §7 that inflates a flow's criticality with
    its waiting time to prevent starvation. *)

type key = {
  deadline : float option;  (** Absolute deadline, seconds. *)
  expected_tx_time : float; (** Remaining size / maximal rate, seconds. *)
  flow_id : int;            (** Final tie-break. *)
}

val compare : key -> key -> int
(** [compare a b < 0] iff flow [a] is more critical than flow [b].
    Total order: EDF, then SJF, then flow ID. *)

val compare_fields :
  float option -> float -> int -> float option -> float -> int -> int
(** [compare_fields da ta ia db tb ib] is [compare] on the keys
    [{deadline = da; expected_tx_time = ta; flow_id = ia}] and
    [{deadline = db; ...}], without building them. *)

val more_critical : key -> key -> bool
(** [more_critical a b] is [compare a b < 0]. *)

val aged_tx_time :
  aging_rate:float -> wait:float -> expected_tx_time:float -> float
(** §7 flow aging: reduce [T_H] by a factor 2^(α·t) where [t] is the
    waiting time in units of 100 ms and α = [aging_rate]. *)
