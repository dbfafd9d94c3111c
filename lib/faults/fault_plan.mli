(** Deterministic fault-schedule DSL: the one plan a run carries.

    A fault plan is a time-ordered list of injection events of two
    families. Network events change the substrate: duplex link
    failures and recoveries, standing loss processes (Bernoulli or
    Gilbert–Elliott) and switch reboots that wipe per-flow scheduler
    soft state. Adversarial events ({!is_adversarial}) set packet
    conditions on a cable — reordering, duplication,
    scheduling-header corruption, delay jitter — or a switch's clock
    skew. Plans are pure data with an exact JSON codec: generators
    expand a seeded {!Pdq_engine.Rng.t} into an event trace (same
    seed + parameters ⇒ identical trace, bit for bit). {!install}
    schedules the network events against a live topology;
    [Pdq_transport.Adversary] interposes the adversarial ones on its
    links, and [Pdq_transport.Runner] installs both.

    Layering: this library only knows the network substrate
    ([pdq_engine] + [pdq_net]). Reactions that live above it — route
    recomputation, switch-state flushing — are injected as callbacks
    by the transport runner. *)

type event =
  | Link_down of { a : int; b : int }
      (** Fail the duplex cable between adjacent nodes [a] and [b]
          (both directions). *)
  | Link_up of { a : int; b : int }  (** Restore the cable. *)
  | Set_loss of { a : int; b : int; model : Pdq_net.Link.loss_model }
      (** Install a standing loss process on both directions of the
          cable until the next [Set_loss] on it: independent
          [Bernoulli] drops (Fig. 9), a bursty [Gilbert] channel, or
          [No_loss] to clear it. The only way a run gets packet loss;
          a timed loss burst is a [Set_loss] pair. Its JSON and
          printed names follow the model: ["loss"] (field ["loss"] =
          p), ["gilbert-loss"] and ["clear-loss"]. *)
  | Switch_reboot of int
      (** Crash-reboot a switch node: all its per-flow scheduling soft
          state is lost and must be rebuilt from traversing headers. *)
  | Reorder of { a : int; b : int; p : float; hold : float }
      (** Hold each packet on the cable with probability [p] for [hold]
          seconds before delivery, letting later packets overtake it. *)
  | Duplicate of { a : int; b : int; p : float }
      (** Deliver each packet twice with probability [p] (the copy's
          mutable scheduling payload is deep-copied; duplicates bypass
          link bandwidth — a pure receiver-side model). *)
  | Corrupt of { a : int; b : int; p : float }
      (** With probability [p], corrupt one scheduling field of the
          traversing header (PDQ rate request / pause attribution, RCP
          rate, D3 allocation — fields a correct switch re-derives).
          Packets without a scheduling payload pass unharmed. *)
  | Jitter of { a : int; b : int; max_delay : float }
      (** Delay every packet by an extra uniform [0, max_delay)
          seconds — differential delay, so it also reorders. *)
  | Clear of { a : int; b : int }
      (** Remove all packet conditions from the cable. *)
  | Clock_skew of { switch : int; skew : float }
      (** Set the switch's clock offset: deadlines in PDQ headers
          entering the switch appear [skew] seconds more urgent
          (negative skew: less urgent). [skew = 0.] clears it. *)

val is_adversarial : event -> bool
(** [Reorder], [Duplicate], [Corrupt], [Jitter], [Clear] and
    [Clock_skew]: the events {!install} leaves to the adversary. *)

val pp_event : Format.formatter -> event -> unit

type t
(** An immutable plan: events sorted by time (stable for ties). *)

val empty : t
val is_empty : t -> bool

val of_events : (float * event) list -> t
(** Explicit plan from (time, event) pairs; sorted stably by time.
    Raises [Invalid_argument] on a negative or non-finite time, on a
    probability outside [0, 1], on a negative hold or delay and on a
    non-finite skew. *)

val events : t -> (float * event) list
(** The time-ordered event trace. *)

val merge : t -> t -> t
val length : t -> int

val check_cables : Pdq_net.Topology.t -> t -> unit
(** Raises [Invalid_argument] naming the first cable the plan acts on
    that the topology lacks ({!Pdq_net.Topology.cable}). *)

val to_json : t -> string
(** Compact JSON array, one object per event, floats in exact
    round-trip form: [of_json (to_json t)] rebuilds the plan bit for
    bit. *)

val of_json : string -> (t, string) result
(** Exact inverse of {!to_json}. Strict: malformed JSON, unknown event
    names, wrong field types and anything {!of_events} rejects are
    all [Error]. *)

val of_json_value : Pdq_telemetry.Json.t -> (t, string) result
(** {!of_json} on an already-parsed document, for codecs that embed a
    plan inside a larger object (the chaos reproducer). *)

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

val degrade :
  links:(int * int) list ->
  ?reorder:float * float ->
  ?corrupt:float ->
  unit ->
  t
(** Standing adversarial conditions from t=0 on every given cable:
    [reorder] is (probability, hold); [corrupt] is a probability.
    Zero-valued knobs emit nothing, so [degrade ~links ()] is
    {!empty}. The degradation-curve experiments use this. *)

val random :
  Pdq_engine.Rng.t ->
  cables:(int * int) list ->
  switches:int list ->
  until:float ->
  intensity:float ->
  count:int ->
  t
(** [count] random adversarial events over the given targets within
    [0, until), parameters uniform within bounded adversary ranges
    scaled by [intensity] (clamped to [0.01, 1]). Deterministic in the
    rng stream and target list order — the chaos fuzzer's plan
    source. *)

val install :
  sim:Pdq_engine.Sim.t ->
  topo:Pdq_net.Topology.t ->
  rng:Pdq_engine.Rng.t ->
  ?trace:(time:float -> event -> unit) ->
  on_change:(unit -> unit) ->
  on_reboot:(int -> unit) ->
  t ->
  unit
(** Schedule every network event of the plan on the simulator;
    adversarial events are skipped. Link events mutate
    {!Pdq_net.Link.t} status/loss models directly, then call
    [on_change] (the transport layer recomputes routes there);
    [Switch_reboot n] only calls [on_reboot n] (the transport layer
    flushes the scheduler state of node [n]'s ports). [rng] feeds the
    injected loss processes; it is split per network event at install
    time so traces stay deterministic. [trace] observes every applied
    event (tests, experiment logs). Raises [Invalid_argument] before
    scheduling anything if the plan names a cable the topology lacks
    ({!check_cables}). *)
