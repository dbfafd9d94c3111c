(** Flow-level simulator (§5.5): iteratively computes equilibrium flow
    sending rates on a 1 ms grid instead of simulating packets. Used
    for the large-scale experiments (Fig. 8), the inaccurate-flow-
    information study (Fig. 10) and flow aging (Fig. 12), exactly as
    the paper does.

    Protocol models:
    - PDQ: criticality-ordered water-filling — each flow, most critical
      first, grabs the minimum residual capacity along its path (this
      is the paper's centralized algorithm of §3, which the distributed
      protocol provably converges to within Pmax+1 RTTs); optional
      Early Termination, flow aging (§7) and alternative criticality
      modes (§5.6).
    - RCP: global max-min fairness by water-filling over a queue of
      per-link fair shares ({!Share_queue}). The float order of the
      residual updates is part of the output, so it is fixed: links
      freeze in (fair share, push sequence) order, a popped entry more
      than 1e-6 below its link's current share is dropped as stale
      without a re-push (the link's newest entry already holds that
      share; the argument is exact only up to rounding, and the RCP
      model property, whose model still re-pushes, and the golden
      digests pin the output), and a frozen
      link's flows are visited oldest-admitted first (the solver keeps
      its active flows in admission order). A link leaves the queue,
      every entry with it, once all its flows have a rate: such entries
      would only be popped and skipped, so dropping them leaves the pop
      order of the rest unchanged. Each step works over the links its
      flows cross, not the whole network.
    - D3: per-link first-come-first-reserve grants of
      [remaining/(deadline−now)] in flow arrival order plus an equal
      share of the leftover, with non-negative fair share and sender
      quenching. Equals RCP when no flow has a deadline.

    Protocol inefficiencies are modelled as in the paper: a flow
    initialization latency before a new flow transmits, and a constant
    header-overhead factor on goodput. *)

type criticality_mode =
  | Perfect
      (** Senders know exact remaining size (EDF ▸ SRPT ▸ id). *)
  | Random_criticality
      (** §5.6: a random per-flow priority chosen at flow start. *)
  | Size_estimation of int
      (** §5.6: criticality = bytes sent so far, updated every given
          quantum (50 KB in the paper); smaller estimate = more
          critical. *)

type pdq_opts = {
  early_termination : bool;
  aging_rate : float option;
      (** §7: α — criticality's T is divided by 2^(α·wait/100 ms). *)
  criticality : criticality_mode;
}

val pdq_defaults : pdq_opts
(** Early termination on, no aging, perfect information. *)

type proto = Pdq of pdq_opts | Rcp | D3

type flow_spec = {
  fs_id : int;
  path : int array;         (** Directed link ids along the route. *)
  size : int;               (** Bytes. *)
  deadline : float option;  (** Relative to start, seconds. *)
  start : float;
}

type flow_result = {
  spec : flow_spec;
  fct : float option;
  met_deadline : bool;
  terminated : bool;
}

type result = {
  flows : flow_result array;
  application_throughput : float;
  mean_fct : float;
  max_fct : float;
  completed : int;
}

type net = { capacity : float array }
(** Capacity (bits/s) per directed link id. *)

val net_of_topology : Pdq_net.Topology.t -> net
(** Extract link capacities from a packet-level topology so both
    simulators run on identical networks. *)

val run :
  ?dt:float ->
  ?init_latency:float ->
  ?seed:int ->
  net ->
  proto ->
  flow_spec list ->
  result
(** Defaults: [dt] = 1 ms, [init_latency] = 0.5 ms (≈ 2 datacenter
    RTTs). Goodput is the rate less 56/1500 of header overhead; the run
    stops at 60 s of simulated time if flows are still open. Raises
    [Invalid_argument] if a flow has an empty path or two flows share an
    [fs_id]. *)

(** RCP's queue of (share, seq) entries, one or more per link, popped
    least first. [seq] counts the pushes since the last {!clear}, so
    entries of equal share pop in push order and the set of entries
    alone fixes the pop sequence.

    Entries are grouped by distinct share: one FIFO per share, which is
    in seq order as pushes come in seq order, and a binary heap of the
    shares with entries. A push finds its share's FIFO through a hash
    table on the share's bits; +0 and −0 are one share, stored as +0.
    {!kill} is lazy: a per-link mark makes the link's earlier entries
    dead, and they are dropped when they reach the front. Shares must
    not be NaN. Exposed for its tests. *)
module Share_queue : sig
  type t

  val create : links:int -> capacity:int -> t
  (** An empty queue for links [0 .. links - 1], with room for
      [capacity] entries between clears and for up to
      [min capacity 1024] distinct shares; each doubles when full. *)

  val clear : t -> unit
  (** Drop every entry and restart the push count. *)

  val is_empty : t -> bool

  val push : t -> int -> float -> unit
  (** [push q l share] adds an entry for link [l]. *)

  val min_share : t -> float
  (** The share of the least entry. Raises [Invalid_argument] when the
      queue is empty. *)

  val min_link : t -> int
  (** The link of the least entry. Raises [Invalid_argument] when the
      queue is empty. *)

  val pop : t -> unit
  (** Remove the least entry. Raises [Invalid_argument] when the queue
      is empty. *)

  val kill : t -> int -> unit
  (** [kill q l] removes every entry of link [l]; the other entries keep
      their order. *)
end
