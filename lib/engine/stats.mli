(** Small statistics toolkit used by experiment drivers: summary
    statistics over float samples and empirical CDFs. *)

val mean : float array -> float
(** Arithmetic mean. 0. on an empty array. *)

val min_max : float array -> float * float
(** Smallest and largest sample. Raises [Invalid_argument] on empty. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation
    between order statistics. Raises [Invalid_argument] on empty. *)

type cdf = (float * float) array
(** An empirical CDF as [(value, fraction <= value)] pairs, sorted by
    value. *)

val cdf : float array -> cdf
(** Empirical CDF of the samples. *)

val cdf_at : cdf -> float -> float
(** [cdf_at c x] is the fraction of samples [<= x]. *)

val fraction : ('a -> bool) -> 'a array -> float
(** Fraction of elements satisfying the predicate; 0. on empty input. *)

module Tally : sig
  (** Named event counters (per-cause drops, aborts, fault events) —
      a string-keyed bag of integers with deterministic, sorted
      output. *)

  type t

  val create : unit -> t
  val incr : t -> string -> unit
  (** Add one to the key's count. *)

  val count : t -> string -> int
  (** 0 for a key never incremented. *)

  val to_list : t -> (string * int) list
  (** All (key, count) pairs, sorted by key. *)

  val total : t -> int
end
