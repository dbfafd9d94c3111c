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
    simulations cooperatively, failed attempts retry with jittered
    exponential backoff, completed slots stream to a JSONL checkpoint,
    and an interrupted sweep resumes re-running only the missing
    slots. {!map} and {!average} are its all-or-nothing view: any
    failure raises {!Sweep_errors} after all workers drain. A scenario
    sweep is [map Scenario.run], or, supervised and checkpointed,
    [supervise ~key:Scenario.digest ~codec:Scenario.result_codec
    Scenario.run].

    Telemetry caveat: sweeps run scenarios without trace sinks or
    metrics registries — sinks are per-run mutable state and channels
    would interleave across domains. Attach telemetry to a single
    {!Scenario.run} instead (or open per-run sinks inside [f], as the
    CLI does); the supervisor emits its own wall-clock lifecycle
    events on the bus [supervise] is given ([?trace]). The global
    profiler may stay enabled during a sweep (shards merge in its
    report); call {!Pdq_engine.Profiler.reset} only between sweeps. *)

exception Sweep_errors of (int * exn) list
(** Raised by {!map} (and {!average}) after all workers have
    drained, listing {e every} failing input index with its exception,
    in input order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], unless the [PDQ_JOBS]
    environment variable names a positive integer — the process-wide
    parallelism pin for CI and bench (clamped to [>= 1]). *)

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
  ?jobs:int ->
  ?budget:Exec_opts.budget ->
  ?attempts:int ->
  ?keep_going:bool ->
  ?checkpoint:string ->
  ?resume:string ->
  ?codec:'b Task.codec ->
  ?trace:Pdq_telemetry.Trace.t ->
  key:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b supervised
(** The sweep executor: one {!Task.t} per input, in input order.

    [jobs] workers share the slots ([min jobs (length xs)];
    {!default_jobs} when absent); [budget] bounds each attempt.

    - A crash settles its slot as [Failed] (exception, backtrace,
      attempts, elapsed); with [keep_going] (default [true]) the sweep
      continues, otherwise workers stop claiming and unattempted slots
      settle as [Skipped].
    - The budget cancels an attempt cooperatively mid-simulation; the
      slot settles as [Timed_out] with the tripped budget's name.
    - A slot whose attempt raises is re-run, up to [attempts] attempts
      in all (default 1: no retry); a timed-out attempt is not, as
      budgets trip deterministically. The backoff before attempt
      [k + 1] is [min 2 (0.05 * 2^(k-1))] seconds jittered by a factor
      in [\[0.5, 1.5)] drawn from an RNG seeded by (slot, attempt), so
      the schedule is deterministic and independent of the worker
      count.
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
    - [trace] receives one [Trace.Sweep_task] per slot lifecycle step
      (emission is serialized across workers), pair it with a
      wall-clock bus, e.g.
      [Trace.create ~clock:Unix.gettimeofday ~sinks]. Its [state] is
      ["ok"] or ["resumed"] (loaded from the checkpoint, not
      executed), ["failed"], ["timed-out"] (detail: the tripped
      budget), ["retry"] ([attempts] is the attempt that just failed,
      [elapsed] the backoff before the next one), ["crashed"] (a
      worker died outside the per-attempt catch; key
      ["worker:<n>"], worker 0 being the calling domain, index the
      slot it had claimed or [-1]) and ["respawned"] (the crashed
      worker restarted). A sink that raises crashes its worker like
      any error outside an attempt.

    [key] must be injective over the sweep inputs (a content hash —
    see {!Scenario.digest}); [f] must be deterministic for resume to
    be bit-identical to an uninterrupted run. *)

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

val average :
  ?jobs:int ->
  seeds:int list ->
  (int -> float) ->
  float
(** [average ~seeds f] is the arithmetic mean of [f seed] over
    [seeds], evaluated in parallel. The summation order is the input
    order, so the result is bit-for-bit independent of [jobs]. The
    capacity searches use it per probe; the figure tables run their
    row × protocol × seed sweeps through [Pdq_experiments.Common.grid]. *)
