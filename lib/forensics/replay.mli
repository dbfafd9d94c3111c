(** Offline reader for recorded JSONL traces ([--trace-out]).

    Each line is parsed with {!Pdq_telemetry.Trace.event_of_json},
    whose float round-trip is exact — analysing a recorded trace
    yields byte-identical reports to analysing the live bus. The
    reader is strict: the first malformed line aborts the read with
    [Error "path:line: why"]. Blank lines (and a trailing newline) are
    tolerated. *)

val read_file :
  string -> ((float * Pdq_telemetry.Trace.event) list, string) result
