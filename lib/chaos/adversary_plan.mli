(** Deterministic adversarial-condition DSL, on the same timed-plan
    core as {!Pdq_faults.Fault_plan} ({!Pdq_faults.Timed_plan}).

    An adversary plan is a time-ordered list of events that enable (or
    clear) adversarial packet conditions on duplex cables — reordering,
    duplication, scheduling-header corruption, delay jitter — plus
    per-switch clock skew. Plans are pure data with an exact JSON
    codec; {!Adversary.install} turns a plan into live interposition on
    the built topology's links.

    Determinism rules match the fault layer: generators expand a seeded
    {!Pdq_engine.Rng.t} in a fixed order (same seed + targets ⇒
    identical plan, bit for bit); installation draws nothing for an
    empty plan; per-packet draws come from per-link streams split in
    deterministic order at install time. *)

type event =
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
          rate, D3 allocation — fields a correct switch re-derives;
          see {!Adversary}). Packets without a scheduling payload pass
          unharmed. *)
  | Jitter of { a : int; b : int; max_delay : float }
      (** Delay every packet by an extra uniform [0, max_delay)
          seconds — differential delay, so it also reorders. *)
  | Clear of { a : int; b : int }
      (** Remove all packet conditions from the cable. *)
  | Clock_skew of { switch : int; skew : float }
      (** Set the switch's clock offset: deadlines in PDQ headers
          entering the switch appear [skew] seconds more urgent
          (negative skew: less urgent). [skew = 0.] clears it. *)

val pp_event : Format.formatter -> event -> unit

include Pdq_faults.Timed_plan.S with type event := event
(** {!of_events} rejects (and {!of_json} reports) probabilities
    outside [0, 1], negative holds and delays and non-finite skews,
    besides bad times. *)

val degrade :
  links:(int * int) list ->
  ?reorder:float * float ->
  ?corrupt:float ->
  unit ->
  t
(** Standing conditions from t=0 on every given cable: [reorder] is
    (probability, hold); [corrupt] is a probability. Zero-valued knobs
    emit nothing, so [degrade ~links ()] is {!empty}. The
    degradation-curve experiments use this. *)

val random :
  Pdq_engine.Rng.t ->
  cables:(int * int) list ->
  switches:int list ->
  until:float ->
  intensity:float ->
  count:int ->
  t
(** [count] random events over the given targets within [0, until),
    parameters uniform within bounded adversary ranges scaled by
    [intensity] (clamped to [0.01, 1]). Deterministic in the rng stream
    and target list order — the chaos fuzzer's plan source. *)
