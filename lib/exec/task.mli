(** The outcome of one supervised sweep slot.

    A fault-tolerant sweep ({!Sweep.supervise}) settles every slot
    with one of these instead of letting the first exception poison
    the whole batch: a crash becomes {!Failed}, a blown budget becomes
    {!Timed_out}, and slots never attempted because the sweep stopped
    early (keep-going off) are {!Skipped}. *)

type failure = {
  exn : string;       (** [Printexc.to_string] of the final attempt's
                          exception. *)
  backtrace : string; (** Backtrace of the final attempt (may be empty
                          when backtrace recording is off). *)
  attempts : int;     (** Attempts consumed, retries included. *)
  elapsed : float;    (** Wall-clock seconds across all attempts. *)
}

type timeout = {
  budget : string;  (** The budget that tripped, e.g. ["wall>5s"] or
                        ["events>1000000"]. *)
  attempts : int;
  elapsed : float;
}

type 'a t =
  | Ok of 'a
  | Failed of failure
  | Timed_out of timeout
  | Skipped

type 'a codec = { encode : 'a -> string; decode : string -> 'a }
(** Serialization for checkpointing [Ok] payloads: [encode] must be
    pure; [decode (encode r)] must reproduce [r] exactly (bit-identical
    for every field the caller observes). [decode] may raise on
    malformed input — the checkpoint loader treats that slot as
    missing. *)

val ok : 'a t -> 'a option
val is_ok : 'a t -> bool

val get_ok : 'a t -> 'a
(** Raises [Invalid_argument] (naming the failure) on non-[Ok]. *)

val state : 'a t -> string
(** ["ok"], ["failed"], ["timed-out"] or ["skipped"]. *)

val cause : 'a t -> string option
(** The failure cause ([None] for [Ok]). *)

val pp : Format.formatter -> 'a t -> unit
(** Deterministic one-line rendering: cause and attempt count, no
    wall-clock times, so sweep output is reproducible. *)
