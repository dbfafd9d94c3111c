(** Packet-level D3 [19] re-implemented as described in §5.1 of the
    PDQ paper: greedy first-come-first-reserve rate allocation.

    Per output link and per control interval (≈ one average RTT), a
    switch grants each flow's first request [desired + fs] from the
    remaining capacity, in arrival order; [fs] is the fair share of
    last interval's leftover, clamped non-negative (the paper's fix —
    the original algorithm could return reserved bandwidth when demand
    exceeded capacity). Deadline flows request
    [remaining size / time-to-deadline]; best-effort flows request 0
    and live off the fair share. Senders quench flows whose deadline
    became impossible. *)

type t

val install : ctx:Context.t -> until:float -> t
val start_flow : t -> Context.flow -> unit

val flow_count : t -> link:int -> int
(** Flows granted a reservation on a directed link in the current
    allocation interval (feeds the telemetry metrics prober). *)
