(** Deterministic pseudo-random number generator (SplitMix64).

    Every experiment in this repository takes an explicit seed and
    derives all randomness from an {!t}, so a given seed reproduces a
    run bit-for-bit. SplitMix64 passes BigCrush and is trivially
    splittable, which lets independent subsystems draw from independent
    streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    further draws from [t]. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto(Type I) sample: support [\[scale, ∞)], tail index [shape]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val derangement : t -> int -> int array
(** [permutation t n] restricted to permutations with no fixed point —
    used by the random-permutation traffic pattern so no server sends to
    itself. Requires [n >= 2]. *)
