(** Figures 6 and 7 — PDQ dynamics on a single bottleneck.

    Fig. 6 (convergence): five ~1 MB flows start at t=0; PDQ should
    serve them strictly one at a time with seamless switching —
    near-100% bottleneck utilization, a small queue, completion at
    ~42 ms.

    Fig. 7 (bursty preemption): a long-lived flow faces 50 short 20 KB
    flows arriving at t=10 ms; PDQ pauses the long flow, absorbs the
    burst at high utilization with a bounded queue, then resumes. *)

type trace = {
  per_flow_gbps : (int * (float * float) array) list;
      (** Per flow: (time, goodput in Gb/s) binned series. *)
  utilization : (float * float) array;
      (** Bottleneck utilization per time bin, fraction of line rate. *)
  queue_pkts : (float * float) array;
      (** Bottleneck queue in data packets per time bin. *)
  completions : (int * float) list;  (** Flow id, completion time. *)
}

val fig6 : unit -> trace
val fig7 : unit -> trace
(** Series are binned at 1 ms. *)

val fig6_table : unit -> Common.table
val fig7_table : unit -> Common.table
