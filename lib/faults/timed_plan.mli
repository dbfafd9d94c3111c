(** The timed-event core shared by the plan DSLs ({!Fault_plan} and
    [Pdq_chaos.Adversary_plan]).

    A plan is an immutable list of (time, event) pairs sorted stably by
    time, with an exact JSON codec. {!Make} builds everything but the
    events themselves; a plan module supplies its event type, that
    type's JSON fields, parameter validation and error-message prefix
    ({!EVENT}), and re-exports the result as
    [include Timed_plan.S with type event := event]. *)

module type EVENT = sig
  type event

  val name : string
  (** The plan module's name (["Fault_plan"]). It prefixes
      [Invalid_argument] messages (["Fault_plan.of_events: ..."]);
      lowercased with ['_'] read as a space, it prefixes JSON errors
      (["fault plan: ..."]). *)

  val validate : event -> unit
  (** Raise [Invalid_argument] if a parameter is out of range. *)

  val cable : event -> (int * int) option
  (** The duplex cable the event acts on, if any. *)

  val to_fields : event -> string
  (** The event's JSON object members after ["t"], ["ev"] first. *)

  val of_fields : (string * Pdq_telemetry.Json.t) list -> event
  (** Inverse of [to_fields]; raises {!Pdq_telemetry.Json.Parse_error}. *)
end

module type S = sig
  type event

  type t
  (** An immutable plan: events sorted by time (stable for ties). *)

  val empty : t
  val is_empty : t -> bool

  val of_events : (float * event) list -> t
  (** Explicit plan from (time, event) pairs; sorted stably by time.
      Raises [Invalid_argument] on a negative or non-finite time, or on
      an event whose parameters are out of range. *)

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
end

module Make (E : EVENT) : S with type event = E.event

(** Helpers for {!EVENT.validate}: [check_prob name what p] raises
    [Invalid_argument "<name>: <what> probability <p>"] unless [p] is a
    probability; [check_nonneg name what x] raises
    [Invalid_argument "<name>: <what> <x>"] unless [x] is finite and
    [>= 0]. *)

val check_prob : string -> string -> float -> unit
val check_nonneg : string -> string -> float -> unit
