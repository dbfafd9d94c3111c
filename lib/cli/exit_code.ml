type t =
  | Ok
  | Bad_trace
  | Fault_aborted
  | Invariant_violation
  | Timed_out
  | Run_failed
  | Violation_found
  | Usage

let to_int = function
  | Ok -> 0
  | Bad_trace -> 1
  | Fault_aborted -> 3
  | Invariant_violation -> 4
  | Timed_out -> 5
  | Run_failed -> 6
  | Violation_found -> 7
  | Usage -> 124

let all =
  [ Ok; Bad_trace; Fault_aborted; Invariant_violation; Timed_out; Run_failed;
    Violation_found; Usage ]

let describe = function
  | Ok -> "the run(s) completed (deadline misses are results, not errors)"
  | Bad_trace -> "a recorded trace or reproducer file could not be read or parsed"
  | Fault_aborted ->
      "at least one flow was aborted by its watchdog (faults cut every path)"
  | Invariant_violation -> "--check found invariant or oracle violations"
  | Timed_out ->
      "a run blew its --timeout/--max-events budget (and nothing worse \
       happened)"
  | Run_failed -> "a sweep left crashed or skipped slots"
  | Violation_found ->
      "the chaos fuzzer found (and shrank) an invariant violation"
  | Usage -> "command-line usage error"
