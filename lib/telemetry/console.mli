(** Leveled console logging — the printf-style face of the telemetry
    console sink. Protocol debug prints route through here instead of
    calling [Printf.eprintf] directly, so one global threshold governs
    all diagnostic output.

    The threshold starts from the [PDQ_DEBUG] environment variable:
    unset — silent; any value (e.g. [PDQ_DEBUG=1]) — Debug level;
    [PDQ_DEBUG=trace] — per-packet Trace level as well.

    Disabled (the default) it costs a single comparison per call —
    format arguments are not evaluated when the severity is below the
    threshold, and call sites are expected to guard hot paths with
    {!enabled} anyway.

    Domain-safe: the threshold is an atomic read, and enabled messages
    are serialized so lines from concurrent worker domains never
    interleave mid-line. *)

val set_threshold : Trace.severity option -> unit
(** [None] silences everything; [Some sev] prints messages of
    severity [sev] and up. Overrides [PDQ_DEBUG]. *)

val enabled : Trace.severity -> bool
(** Whether a message at this severity would currently print. *)

val logf : Trace.severity -> ('a, Format.formatter, unit) format -> 'a
(** Print one line to stderr as ["[<severity>] <message>"] when
    {!enabled}; otherwise swallow the message without evaluating it. *)
