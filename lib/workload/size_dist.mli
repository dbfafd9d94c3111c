(** Flow-size distributions used in the evaluation (§5.1, §5.3).

    The two trace-derived distributions are synthetic stand-ins fitted
    to the published shapes (see DESIGN.md, substitutions): the
    simulator consumes flow-level summaries, so the distribution's
    shape — not the raw trace — is what drives protocol ranking. *)

type t

val sample : t -> Pdq_engine.Rng.t -> int
(** Draw a flow size in bytes. *)

val mean : t -> float
(** Analytic (or configured) mean size in bytes. *)

val uniform_paper : mean_bytes:int -> t
(** The paper's query/deadline workload: uniform on
    [\[2 KB, 2·mean − 2 KB\]], matching "drawn from the interval
    \[2 KB, 198 KB\] using a uniform distribution" for mean 100 KB. *)

val uniform : lo:int -> hi:int -> t
(** Uniform on [\[lo, hi\]] bytes. *)

val fixed : int -> t
(** Degenerate: every flow has the same size. *)

val pareto : ?tail_index:float -> mean_bytes:int -> unit -> t
(** Heavy-tailed Pareto with the given tail index (default 1.1, as in
    Fig. 10) scaled to the requested mean. *)

val vl2 : unit -> t
(** Mixture modelled on the production-datacenter measurements of
    Greenberg et al. (VL2): ~95% mice (a few KB to tens of KB), a few
    percent medium flows, and a small fraction of elephants (1–100 MB)
    that carry most bytes. *)

val edu1 : unit -> t
(** Modelled on the university datacenter EDU1 of Benson et al.: small
    median (~5 KB), moderately heavy tail up to ~10 MB. *)
