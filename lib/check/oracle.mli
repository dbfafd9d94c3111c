(** Centralized preemptive oracle: offline EDF/SJF fluid references
    against which a finished packet-level run is validated.

    Two layers of bound:
    - a {b per-flow guaranteed lower bound} — transmission time of the
      flow's bytes through its slowest route link plus one traversal of
      every hop's propagation and processing delay. No scheduler can
      beat it, so [bound <= simulated FCT] must hold for every
      completed flow; a faster flow means the simulator leaked
      capacity.
    - {b aggregate references} — flows are grouped by bottleneck link
      (the most-shared minimum-rate link on each route) and scheduled
      by a centralized preemptive SJF (SRPT) and EDF + Moore–Hodgson
      fluid oracle at the link's goodput rate. These bound mean FCT and
      deadline throughput {e in aggregate}; the ratio of the simulated
      mean FCT to the SJF mean is the {b emulation gap} the paper's
      distributed protocol is trying to close. *)

type flow_bound = {
  ob_flow : int;         (** Flow id (index into [result.flows]). *)
  bound : float;         (** Contention-free FCT lower bound, s. *)
  fct : float option;    (** Simulated FCT, when completed. *)
}

type t = {
  bounds : flow_bound array;
  violations : Report.violation list;
      (** One ["oracle"] violation per completed flow whose simulated
          FCT beats its guaranteed lower bound. *)
  sim_mean_fct : float;  (** Mean over completed flows (nan if none). *)
  sjf_mean_fct : float;
      (** Mean FCT of the centralized SJF oracle over all flows. *)
  edf_deadline_frac : float;
      (** Fraction of deadline flows the EDF + Moore–Hodgson oracle
          satisfies (1.0 when there are none). *)
  gap : float;           (** [sim_mean_fct /. sjf_mean_fct]. *)
}

val check :
  per_flow:bool ->
  result:Pdq_transport.Runner.result ->
  topo:Pdq_net.Topology.t ->
  unit ->
  t
(** The aggregate references take goodput as 1460/1500 of the line
    rate; the per-flow guaranteed bound always uses the raw line rate
    so it stays a true lower bound. [per_flow] controls the per-flow
    assertions — disable it for
    multipath protocols (M-PDQ), whose striped subflows legitimately
    beat any single path's bound. *)
