(** FCT attribution: where did each flow's completion time go?

    Decomposes every completed flow's measured FCT into the span
    components of {!Spans} — handshake, serialization (actively
    sending), paused (preempted or throttled to zero), loss recovery,
    fault-induced downtime — plus a residual defined as the remainder
    against the measured FCT, so the six terms sum to the FCT {e
    exactly}. An ideal-transfer-time baseline (size at the highest
    rate the flow was ever granted) rides along for slowdown
    comparisons.

    All renderers are deterministic (fixed sort orders, fixed float
    formats), so analysing a recorded JSONL trace reproduces the
    live-bus report byte for byte. *)

type components = {
  handshake : float;
  serialization : float;
  paused : float;
  recovery : float;
  downtime : float;
  residual : float;
}

val total : components -> float
(** [handshake +. serialization +. paused +. recovery +. downtime],
    summed in that order (the order against which [residual] was
    taken), plus [residual] — equals the measured FCT. *)

type flow_report = {
  flow : int;
  size : int option;
  fct : float;
  ideal : float option;
      (** Transfer time at the peak granted rate; [None] when the size
          or any granted rate is unknown (e.g. TCP emits no rate
          events). *)
  c : components;
  blamed : (int * float) list;
      (** Preempting flow id → seconds this flow spent paused under
          it, sorted by preempter. *)
  paused_unattributed : float;
      (** Paused seconds with no single flow to blame (rate
          controller, RCP fallback). *)
  retransmits : int;
}

type report = {
  flows : flow_report list;  (** Completed flows, sorted by id. *)
  terminated : int list;
  aborted : (int * string) list;
  unfinished : int list;
  errors : Spans.error list;
  totals : components;  (** Component sums over completed flows. *)
  total_fct : float;
  blame : (int * int * float) list;
      (** Who-preempted-whom: (preempter, victim, seconds). *)
  paused_preempted : float;
  paused_controller : float;
  tail : (int * float * components) option;
      (** The p99-FCT flow: (flow, fct, its components). *)
}

val of_spans : Spans.t -> report
val of_events : (float * Pdq_telemetry.Trace.event) list -> report

val to_text : report -> string
val to_csv : report -> string
val to_json : report -> string
