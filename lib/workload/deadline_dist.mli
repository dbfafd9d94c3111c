(** Flow-deadline distribution (§5.1): exponential with a configurable
    mean (the paper sweeps 20–60 ms) and a 3 ms lower bound, since some
    raw draws "could have tiny deadlines that are unrealistic in real
    network applications". *)

type t

val exponential : ?floor:float -> mean:float -> unit -> t
(** Deadlines in seconds; [floor] defaults to 3 ms. *)

val sample : t -> Pdq_engine.Rng.t -> float
