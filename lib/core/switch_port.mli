(** PDQ switch logic for one output link (§3.3).

    A switch instantiates one [Switch_port] per output queue. The port
    owns the per-link flow list, the flow controller (Algorithms 1–3:
    pausing/acceptance, Early Start, dampening,
    Suppressed Probing), the rate controller (C = rPDQ − q/(2·RTT)) and
    the RCP fallback for flows beyond the memory bound [M].

    This module is substrate-independent: the packet-level simulator
    calls {!process_forward}/{!process_reverse} with the scheduling
    header of each traversing packet, and the flow-level simulator can
    drive the same state machine directly. *)

type t

val create :
  ?trace:Pdq_telemetry.Trace.t ->
  config:Config.t ->
  switch_id:int ->
  link_rate:float ->
  init_rtt:float ->
  unit ->
  t
(** A fresh port. [link_rate] is the output line rate in bits/s and
    also rPDQ, the aggregate rate the port hands out to PDQ flows.
    [init_rtt] seeds the average-RTT estimate before any header is
    seen. [trace] (default {!Pdq_telemetry.Trace.null}) receives
    [Switch_flushed] on {!flush} and [Switch_rebuilt] when the first
    flow is stored again afterwards. *)

val config : t -> Config.t

val rtt_avg : t -> float
(** Current average-RTT estimate (EWMA over header RTT fields). *)

val available_rate : t -> float
(** Current value of the rate-controller variable [C]. *)

val flow_list : t -> Flow_list.t
(** The stored flows, most critical first (exposed for inspection and
    tests; mutating it directly is unsupported). *)

val kappa : t -> int
(** Number of stored flows currently sending (rate > 0). *)

val paused_count : t -> int
(** Number of stored flows currently paused (rate = 0). *)

val list_capacity : t -> int
(** Current flow-list capacity: the [2κ] bound of §3.3.1 (floored at
    [min_list_size]) capped by the hard memory bound [M]. The
    validation monitors assert [length (flow_list t) <= list_capacity t]
    at every probe tick. *)

val mature_rate_sum : t -> float
(** Sum of granted rates over sending flows {e beyond} the Early Start
    allowance: walking the list in criticality order, flows within
    4 average RTTs of completion are excused while their cumulative
    transmission time stays under 4 RTTs (the §3.3.2 budget, checked
    against a constant — a generous 2× the paper's K — {e not} the
    configured
    [k_early_start], so a broken allocator cannot excuse itself). A
    correct port keeps this at or below the line rate; the validation
    monitors flag sustained excess. *)

val invariant_errors : t -> string list
(** Internal-consistency check for the validation subsystem: the flow
    list is in criticality order, every stored rate is finite and in
    [0, link rate], no flow is both stored and in the RCP fallback, and
    the rate-controller variable stays within [0, rPDQ]. Empty when
    consistent; each entry names the violated inequality. *)

val process_forward : t -> Header.t -> flow_id:int -> now:float -> unit
(** Algorithm 1 — run on every data/probe/SYN header travelling
    source→destination: updates stored flow state, decides
    pause/accept, rewrites [rate]/[pause_by] in the header, or applies
    the RCP fallback when the flow cannot be stored. *)

val process_reverse : t -> Header.t -> flow_id:int -> now:float -> unit
(** Algorithm 3 — run on every ACK header travelling back: commits the
    global accept/pause decision into the flow list and stretches the
    inter-probe interval (Suppressed Probing). *)

val update_rate_controller : t -> queue_bytes:int -> now:float -> unit
(** Rate-controller step (§3.3.3): set [C ← max(0, rPDQ − q/(2·RTT))].
    Call every {!rate_update_interval}. *)

val rate_update_interval : t -> float
(** Seconds until the next rate-controller update (2 average RTTs by
    default). *)

val remove_flow : t -> int -> now:float -> unit
(** Forget a flow (on TERM or timeout); frees its bandwidth share. *)

val flush : t -> unit
(** Switch reboot: wipe all soft state — the flow list, the RCP
    fallback membership, the RTT estimates and the rate-controller
    variable — back to the just-created state. The paper's soft-state
    argument (§3.3) says traversing scheduling headers rebuild
    everything within a few RTTs; tests and the resilience harness
    validate exactly that. rPDQ (configuration) is preserved. *)

val fallback_flow_count : t -> int
(** Number of flows currently handled by the RCP fallback (§3.3.1). *)
