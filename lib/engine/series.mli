(** Time-series recorder for simulation traces (Fig. 6/7-style plots:
    per-flow throughput, link utilization, queue length vs. time). *)

type t
(** A mutable append-only series of [(time, value)] points. *)

val create : unit -> t
(** Fresh empty series. *)

val add : t -> float -> float -> unit
(** [add s t v] appends point [(t, v)]. Times must be nondecreasing. *)

val bin_mean : t -> width:float -> t_end:float -> (float * float) array
(** [bin_mean s ~width ~t_end] averages values into consecutive bins
    [\[k*width, (k+1)*width)] up to [t_end]; empty bins yield 0. Each
    output pair is (bin center, mean value). *)

val integrate_rate : t -> width:float -> t_end:float -> (float * float) array
(** Treat points as instantaneous event sizes (e.g. bytes transmitted at
    time t) and return per-bin sums divided by bin width — a rate
    series, e.g. bytes/sec when fed bytes. *)
