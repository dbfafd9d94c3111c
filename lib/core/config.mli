(** PDQ protocol parameters and feature toggles.

    The paper evaluates four variants (§5.1): PDQ(Basic), PDQ(ES),
    PDQ(ES+ET) and PDQ(Full) — cumulative combinations of Early Start,
    Early Termination and Suppressed Probing. *)

type features = {
  early_start : bool;  (** §3.3.2, Early Start: accept nearly-completed
                           next flows before the current one finishes. *)
  early_termination : bool;
      (** §3.1, Early Termination: senders kill flows that can no longer
          meet their deadline. *)
  suppressed_probing : bool;
      (** §3.3.2, Suppressed Probing: scale a paused flow's inter-probe
          time with its position in the switch flow list. *)
}

type t = {
  features : features;
  k_early_start : float;
      (** Early Start budget [K], in RTTs of aggregate remaining
          transmission time admitted early. Paper default: 2. *)
  probe_x : float;
      (** Suppressed-probing factor [X] (per list index, in RTTs).
          Paper default: 0.2. *)
  dampening : float;
      (** Seconds after accepting a paused flow during which no other
          paused flow is accepted (§3.3.2, Dampening). *)
  min_list_size : int;
      (** Lower bound on the flow-list capacity so a link can always
          remember at least a couple of waiting flows. *)
  max_list_size : int;
      (** Hard memory bound [M] on stored flows; beyond it the switch
          falls back to RCP-style fair sharing (§3.3.1). *)
  queue_allowance_bytes : int;
      (** Queue bytes the rate controller tolerates before throttling —
          one MTU by default (the packet in service is not
          congestion). *)
}

val basic : t
(** PDQ(Basic): no Early Start, no Early Termination, no Suppressed
    Probing. *)

val es : t
(** PDQ(ES): Early Start only. *)

val es_et : t
(** PDQ(ES+ET): Early Start + Early Termination. *)

val full : t
(** PDQ(Full): all three refinements — the complete protocol. *)

val name : t -> string
(** Short human-readable variant name, e.g. ["PDQ(Full)"]. *)

val with_k : t -> float -> t
(** Override the Early Start budget [K] (used by the ablation bench). *)
