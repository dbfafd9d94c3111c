(** Multicore sweep executor.

    Evaluates a list of independent jobs — typically {!Scenario.run}
    over a scenario list — on a pool of OCaml 5 domains. Jobs are
    pulled from a shared queue by [jobs] workers (the calling domain
    is one of them); results come back {e in input order} and, because
    every scenario run is self-contained (fresh simulator, seeded RNG,
    domain-sharded profiler), they are bit-for-bit identical to
    sequential evaluation.

    There is one executor, {!supervise}: every slot settles as a
    {!Task.t} (keep-going), per-attempt budgets cancel runaway
    simulations cooperatively, transient failures retry with jittered
    exponential backoff, completed slots stream to a JSONL checkpoint,
    and an interrupted sweep resumes re-running only the missing
    slots. {!map}, {!run} and {!average} are its all-or-nothing view:
    any failure raises {!Sweep_errors} after all workers drain.

    Telemetry caveat: sweeps run scenarios without trace sinks or
    metrics registries — sinks are per-run mutable state and channels
    would interleave across domains. Attach telemetry to a single
    {!Scenario.run} instead (or open per-run sinks inside [f], as the
    CLI does); the supervisor has its own wall-clock event stream
    ({!event}, bridged to a trace bus by {!emit_trace}). The global
    profiler may stay enabled during a sweep (shards merge in its
    report); call {!Pdq_engine.Profiler.reset} only between sweeps. *)

exception Sweep_errors of (int * exn) list
(** Raised by {!map} (and {!run} / {!average}) after all workers have
    drained, listing {e every} failing input index with its exception,
    in input order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], unless the [PDQ_JOBS]
    environment variable names a positive integer — the process-wide
    parallelism pin for CI and bench (clamped to [>= 1]). *)

(** {1 Retry policy} *)

type retry = {
  attempts : int;            (** Max attempts per slot ([>= 1]; 1 =
                                 no retry). *)
  base_delay : float;        (** Backoff base, seconds. *)
  max_delay : float;         (** Backoff cap, seconds. *)
  transient : exn -> bool;   (** Only matching failures are retried
                                 (timeouts never are — budgets trip
                                 deterministically). *)
}

val no_retry : retry
(** Single attempt. *)

val retry :
  ?attempts:int ->
  ?base_delay:float ->
  ?max_delay:float ->
  ?transient:(exn -> bool) ->
  unit ->
  retry
(** Defaults: 1 attempt, 50 ms base, 2 s cap, every exception
    transient. The backoff delay for attempt [k] is
    [min max_delay (base_delay * 2^(k-1))] jittered by a factor in
    [\[0.5, 1.5)] drawn from an RNG seeded by (slot, attempt) — the
    schedule is deterministic and independent of the worker count. *)

(** {1 Supervisor telemetry} *)

type event =
  | Slot_ok of {
      index : int;
      key : string;
      attempts : int;
      elapsed : float;
      resumed : bool;  (** Loaded from the checkpoint, not executed. *)
    }
  | Slot_failed of { index : int; key : string; failure : Task.failure }
  | Slot_timed_out of { index : int; key : string; timeout : Task.timeout }
  | Slot_retry of {
      index : int;
      key : string;
      attempt : int;  (** The attempt that just failed. *)
      delay : float;  (** Backoff before the next one. *)
      exn : string;
    }
  | Worker_crashed of { worker : int; index : int option; exn : string }
      (** A worker died outside the per-attempt catch; [index] is the
          slot it had claimed (settled as [Failed]). Worker 0 is the
          calling domain. *)
  | Worker_respawned of { worker : int }
      (** The crashed worker restarted (a fresh domain, or the calling
          domain re-entering its loop). *)

val emit_trace : Pdq_telemetry.Trace.t -> event -> unit
(** Forward a supervisor event to a trace bus as a
    [Trace.Sweep_task] — pair with a wall-clock bus, e.g.
    [Trace.create ~clock:Unix.gettimeofday ~sinks]. *)

(** {1 Resilience report} *)

type report = {
  total : int;
  ok : int;
  resumed : int;     (** Subset of [ok] satisfied from the
                         checkpoint. *)
  stale : int;       (** Checkpoint entries whose digest matched no
                         slot of this sweep — the inputs changed since
                         the checkpoint was written, so those slots
                         re-execute from scratch. A stderr warning is
                         printed at resume time, and {!pp_report}
                         repeats it when nonzero. *)
  failed : int;
  timed_out : int;
  skipped : int;
  attempts : int;    (** Attempts actually executed (retries included,
                         resumed slots excluded). *)
  wall : float;      (** Sweep wall-clock seconds. *)
  slots : (int * string) list;
      (** Every non-[Ok] slot with its deterministic cause line. *)
  notes : (int * string) list;
      (** Caller-attached per-slot annotations (see {!with_notes}) —
          e.g. the CLI's one-line forensics attribution summaries.
          Empty on a freshly built report. *)
}

val with_notes : report -> notes:(int * string) list -> report
(** Attach per-slot notes (sorted by slot index) to a report; they
    render after the failure slots in {!pp_report} and as a [notes]
    array in {!report_to_json}. *)

val pp_report : Format.formatter -> report -> unit
(** Counts and per-slot causes; deliberately omits wall-clock numbers
    so supervised sweep output is reproducible run to run. *)

val report_to_json : report -> string
(** One JSON object (wall time included) — the machine-readable sweep
    failure artifact. *)

(** {1 Supervised execution} *)

type 'b supervised = { tasks : 'b Task.t list; report : report }

val supervise :
  ?opts:Exec_opts.t ->
  ?retry:retry ->
  ?keep_going:bool ->
  ?checkpoint:string ->
  ?resume:string ->
  ?codec:'b Task.codec ->
  ?on_event:(event -> unit) ->
  key:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b supervised
(** The sweep executor: one {!Task.t} per input, in input order.

    [opts] carries the worker count and per-attempt budget
    ({!Exec_opts}; the [telemetry] field is ignored, as everywhere in
    [Sweep]).

    - A crash settles its slot as [Failed] (exception, backtrace,
      attempts, elapsed); with [keep_going] (default [true]) the sweep
      continues, otherwise workers stop claiming and unattempted slots
      settle as [Skipped].
    - The budget cancels an attempt cooperatively mid-simulation; the
      slot settles as [Timed_out] with the tripped budget's name.
    - [retry] re-runs failing attempts classified [transient], with
      deterministic jittered exponential backoff.
    - A worker that dies outside the attempt wrapper (the calling
      domain, which is worker 0, included) has its claimed slot
      settled as [Failed] and is restarted while unclaimed work
      remains — one poisoned slot cannot idle a pool slot forever.
    - [checkpoint] streams every [Ok] slot to a JSONL file (append,
      flushed per line) keyed by [key input]; [resume] pre-settles
      slots whose key has a decodable value in an existing checkpoint
      file, so only missing/failed slots re-execute. Both require
      [codec]; torn or malformed lines (a kill mid-write) are ignored,
      and appending to a file whose last line is torn starts a new line
      first, so the next entry stays readable.
    - [on_event] observes the slot lifecycle (calls are serialized
      across workers).

    [key] must be injective over the sweep inputs (a content hash —
    see {!Scenario.digest}); [f] must be deterministic for resume to
    be bit-identical to an uninterrupted run. *)

val run_supervised :
  ?opts:Exec_opts.t ->
  ?retry:retry ->
  ?keep_going:bool ->
  ?checkpoint:string ->
  ?resume:string ->
  ?on_event:(event -> unit) ->
  Scenario.t list ->
  Pdq_transport.Runner.result supervised
(** {!supervise} over {!Scenario.run} with {!Scenario.digest} keys and
    {!Scenario.result_codec} checkpointing. *)

(** {1 All-or-nothing execution} *)

val map :
  ?jobs:int -> ?budget:Exec_opts.budget -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] evaluates [f] over [xs] with {!supervise} on
    [min jobs (length xs)] workers and returns the results in input
    order. [jobs] defaults to {!default_jobs}; [jobs <= 1] runs every
    slot on the calling domain (no domain is spawned). If any [f x]
    raises, {!Sweep_errors} with every failing index and its original
    exception is raised after all workers have drained; partial
    results are discarded (use {!supervise} to keep them). An optional
    [budget] bounds each evaluation; a tripped budget raises
    [Sim.Cancelled] for that index, reported through {!Sweep_errors}
    like any other failure. *)

val run :
  ?opts:Exec_opts.t -> Scenario.t list -> Pdq_transport.Runner.result list
(** [map Scenario.run] with {!Exec_opts} carrying the worker count and
    per-run budget. The [telemetry] field is ignored — sweeps are
    telemetry-free (see the caveat above). *)

val average :
  ?jobs:int ->
  ?budget:Exec_opts.budget ->
  seeds:int list ->
  (int -> float) ->
  float
(** [average ~seeds f] is the arithmetic mean of [f seed] over
    [seeds], evaluated in parallel. The summation order is the input
    order, so the result is bit-for-bit independent of [jobs]. The
    single seed-averaging loop behind every figure driver. *)
