(** Deterministic fault-schedule DSL.

    A fault plan is a time-ordered list of injection events — duplex
    link failures and recoveries, loss episodes (flat Bernoulli bursts),
    standing loss processes (Bernoulli or Gilbert–Elliott), and switch
    reboots that wipe per-flow scheduler soft state. Plans are pure data:
    generators expand a seeded {!Pdq_engine.Rng.t} into an event trace
    (same seed + parameters ⇒ identical trace, bit for bit), and
    {!install} turns a plan into scheduled simulator events against a
    live topology. The plan core (ordering, validation, JSON codec) is
    {!Timed_plan}'s.

    Layering: this library only knows the network substrate
    ([pdq_engine] + [pdq_net]). Reactions that live above it — route
    recomputation, switch-state flushing — are injected as callbacks
    by the transport runner. *)

type event =
  | Link_down of { a : int; b : int }
      (** Fail the duplex cable between adjacent nodes [a] and [b]
          (both directions). *)
  | Link_up of { a : int; b : int }  (** Restore the cable. *)
  | Loss_burst of { a : int; b : int; loss : float; duration : float }
      (** Drop packets on both directions with probability [loss] for
          [duration] seconds, then restore the previous loss model. *)
  | Set_loss of { a : int; b : int; model : Pdq_net.Link.loss_model }
      (** Install a standing loss process on both directions of the
          cable until the next [Set_loss] on it: independent
          [Bernoulli] drops (Fig. 9), a bursty [Gilbert] channel, or
          [No_loss] to clear it. The only way a run gets standing
          loss. Its JSON and printed names follow the model:
          ["loss"] (field ["loss"] = p), ["gilbert-loss"] and
          ["clear-loss"]. *)
  | Switch_reboot of int
      (** Crash-reboot a switch node: all its per-flow scheduling soft
          state is lost and must be rebuilt from traversing headers. *)

val pp_event : Format.formatter -> event -> unit

include Timed_plan.S with type event := event
(** {!of_events} rejects (and {!of_json} reports) loss and
    Gilbert–Elliott probabilities outside [0, 1] and negative burst
    durations, besides bad times. *)

val switch_cables : Pdq_net.Topology.t -> (int * int) list
(** The switch-switch subset of {!Pdq_net.Topology.cables}, in the same
    order — the usual link-failure targets. *)

val switches : Pdq_net.Topology.t -> int list
(** Switch nodes in id order — the reboot targets. *)

val link_flaps :
  Pdq_engine.Rng.t ->
  links:(int * int) list ->
  mtbf:float ->
  mttr:float ->
  until:float ->
  t
(** Memoryless failure/recovery process per cable: exponential time to
    failure (mean [mtbf]) alternating with exponential repair time
    (mean [mttr]), truncated at [until]. *)

val switch_reboots :
  Pdq_engine.Rng.t -> switches:int list -> mtbf:float -> until:float -> t
(** Exponential crash-reboot process per switch (reboots are modeled
    as instantaneous state wipes). *)

val install :
  sim:Pdq_engine.Sim.t ->
  topo:Pdq_net.Topology.t ->
  rng:Pdq_engine.Rng.t ->
  ?trace:(time:float -> event -> unit) ->
  on_change:(unit -> unit) ->
  on_reboot:(int -> unit) ->
  t ->
  unit
(** Schedule every event of the plan on the simulator. Link events
    mutate {!Pdq_net.Link.t} status/loss models directly, then call
    [on_change] (the transport layer recomputes routes there);
    [Switch_reboot n] only calls [on_reboot n] (the transport layer
    flushes the scheduler state of node [n]'s ports). [rng] feeds the
    injected loss processes; it is split per event at install time so
    traces stay deterministic. [trace] observes every applied event
    (tests, experiment logs). Raises [Invalid_argument] before
    scheduling anything if the plan names a cable the topology lacks
    ({!check_cables}). *)
