(** The [pdq_sim] exit-status discipline, as data.

    Every subcommand maps its outcome through this one variant instead
    of scattering bare integer bindings, so the process contract — and
    its precedence order (violations dominate run failures dominate
    timeouts dominate fault aborts dominate success) — lives in one
    place, asserted by the CLI tests and rendered into the man page's
    EXIT STATUS section. *)

type t =
  | Ok  (** The run(s) completed; deadline misses are experiment
            results, not process failures. *)
  | Bad_trace
      (** [forensics] could not read or parse a recorded trace file,
          or [chaos --replay] could not read a reproducer. *)
  | Fault_aborted
      (** At least one flow was aborted by its watchdog (injected
          faults cut every path). *)
  | Invariant_violation
      (** [--check] found invariant or oracle violations. *)
  | Timed_out
      (** A run blew its [--timeout]/[--max-events] budget (and
          nothing worse happened). *)
  | Run_failed
      (** A sweep left crashed or skipped slots. *)
  | Violation_found
      (** The [chaos] fuzzer found an invariant violation and emitted
          a (shrunk) reproducer. *)
  | Usage  (** Command-line usage error (cmdliner's default). *)

val to_int : t -> int
(** [Ok] 0, [Bad_trace] 1, [Fault_aborted] 3, [Invariant_violation] 4,
    [Timed_out] 5, [Run_failed] 6, [Violation_found] 7, [Usage] 124. *)

val describe : t -> string
(** One-line human description (the man page EXIT STATUS text). *)

val all : t list
(** Every code, ascending by {!to_int}. *)
