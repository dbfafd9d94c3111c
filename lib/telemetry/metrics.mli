(** Network-wide metrics registry.

    Subsumes the ad-hoc string {!Pdq_engine.Stats.Tally}: instruments
    are created once (typed handles), and periodic probes append
    time-series samples on a configurable grid. Everything is
    exportable as CSV or JSONL for plotting.

    Registries are plain data: no simulator events, no randomness, so
    a registry can be attached to a run without perturbing it. *)

type t

val create : unit -> t

(** {1 Typed metric names}

    Canonical dotted names so exporters and consumers agree: use these
    instead of hand-rolled strings. *)

module Name : sig
  val link_util : int -> string
  (** ["link.<id>.util"] — fraction of line rate used since the
      previous sample. *)

  val link_queue_bytes : int -> string
  (** ["link.<id>.queue_bytes"] — instantaneous output-queue depth. *)

  val port_flows_active : int -> string
  (** ["port.<link>.flows_active"] — stored flows currently sending on
      the port of that directed link. *)

  val port_flows_paused : int -> string
  (** ["port.<link>.flows_paused"] — stored flows currently paused. *)

  val flow_fct_ms : string
  (** ["flow.fct_ms"] — histogram of flow completion times. *)

  val watchdog_abort : string -> string
  (** ["watchdog.abort.<cause>"] — live counter of sender-watchdog
      aborts by cause, incremented at abort time (unlike the end-of-run
      ["abort.<cause>"] tally fold), so chaos runs can assert on it by
      stable name. *)
end

(** {1 Scalar instruments} *)

type counter

val counter : t -> string -> counter
(** Find-or-create the named monotonic counter. *)

val incr : counter -> ?by:int -> unit -> unit
val counter_value : counter -> int

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

val histogram_summary :
  histogram -> (int * float * float * float * float * float) option
(** [(n, mean, p50, p90, p99, max)], or [None] when empty. *)

(** {1 Time series} *)

val sample : t -> time:float -> name:string -> value:float -> unit
(** Append one (time, value) point to the named series. Times must be
    nondecreasing per name (probes run on a forward-moving clock). *)

val series : t -> name:string -> (float * float) array
(** All points of a series, in order; [[||]] for an unknown name. *)

val series_names : t -> string list
(** Sorted names of all series with at least one point. *)

(** {1 Bulk import and export} *)

val add_counters : t -> (string * int) list -> unit
(** Fold a [(key, count)] list (e.g. {!Pdq_engine.Stats.Tally.to_list})
    into the registry's counters. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val write_csv : t -> out_channel -> unit
(** [kind,time,name,value] rows: every time-series point (kind
    [sample], in time order), then counters (kind [counter]) and
    histogram summaries (kind [hist.*]) with an empty time column,
    sorted by name. Names containing commas, quotes or newlines are
    RFC 4180-quoted. *)

val write_jsonl : t -> out_channel -> unit
(** The same data as {!write_csv}, one JSON object per line. *)
