(** Paper-fidelity regression bands.

    A band is a committed expected-value interval for one summary
    metric of one figure's smoke-scale experiment. The fidelity gate
    ({!Pdq_experiments.Fidelity}) recomputes each metric and fails CI
    when a value drifts out of band — catching silent behavioural
    regressions that still type-check and pass unit tests. *)

type band = {
  id : string;     (** Unique entry id, e.g. ["fig4b.pdq"]. *)
  figure : string; (** Paper figure, e.g. ["fig4b"]. *)
  metric : string; (** e.g. ["mean_fct_ms"], ["app_throughput"]. *)
  lo : float;
  hi : float;      (** Inclusive expected interval. *)
}

type outcome = { band : band; value : float; ok : bool }

val band :
  id:string -> figure:string -> metric:string -> lo:float -> hi:float -> band

val eval : band -> float -> outcome
(** In-band test; NaN and infinities always fail. *)

val all_ok : outcome list -> bool
val pp_outcomes : Format.formatter -> outcome list -> unit
