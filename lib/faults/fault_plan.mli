(** Deterministic fault-schedule DSL.

    A fault plan is a time-ordered list of injection events — duplex
    link failures and recoveries, loss episodes (flat Bernoulli bursts
    or standing Gilbert–Elliott bursty channels), and switch reboots
    that wipe per-flow scheduler soft state. Plans are pure data:
    generators expand a seeded {!Pdq_engine.Rng.t} into an event trace
    (same seed + parameters ⇒ identical trace, bit for bit), and
    {!install} turns a plan into scheduled simulator events against a
    live topology.

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
  | Gilbert_loss of { a : int; b : int; ge : Pdq_net.Link.gilbert_elliott }
      (** Install a standing bursty (Gilbert–Elliott) loss channel. *)
  | Clear_loss of { a : int; b : int }
      (** Remove any loss model from the cable. *)
  | Switch_reboot of int
      (** Crash-reboot a switch node: all its per-flow scheduling soft
          state is lost and must be rebuilt from traversing headers. *)

type t
(** An immutable plan: events sorted by time (stable for ties). *)

val empty : t
val is_empty : t -> bool

val of_events : (float * event) list -> t
(** Explicit plan from (time, event) pairs; sorted stably by time.
    Raises [Invalid_argument] on negative times. *)

val events : t -> (float * event) list
(** The expanded, time-ordered event trace. *)

val merge : t -> t -> t
val length : t -> int

val pp_event : Format.formatter -> event -> unit

val to_json : t -> string
(** Compact JSON array, one object per event, floats in exact
    round-trip form: [of_json (to_json t)] rebuilds the plan bit for
    bit. *)

val of_json : string -> (t, string) result
(** Exact inverse of {!to_json}. Strict: malformed JSON, unknown event
    names, wrong field types and negative times are all [Error]. *)

val of_json_value : Pdq_telemetry.Json.t -> (t, string) result
(** {!of_json} on an already-parsed document, for codecs that embed a
    plan inside a larger object (the chaos reproducer). *)

val switch_cables : Pdq_net.Topology.t -> (int * int) list
(** Undirected switch-switch cables as (a, b) pairs with a < b — the
    usual link-failure targets (host access links excluded). *)

val switches : Pdq_net.Topology.t -> int list
(** Non-host nodes — the reboot targets. *)

val flap : a:int -> b:int -> down_at:float -> up_at:float -> t
(** One failure/recovery pair on a single cable. *)

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

val loss_bursts :
  Pdq_engine.Rng.t ->
  links:(int * int) list ->
  mean_interval:float ->
  mean_duration:float ->
  loss:float ->
  until:float ->
  t
(** Poisson episodes of flat loss [loss] with exponential durations —
    the scheduled-episode counterpart of a Gilbert–Elliott channel,
    useful when the experiment wants to sweep burst length directly. *)

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
    (tests, experiment logs). *)
