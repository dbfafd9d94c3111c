(** Resilience experiments: PDQ vs. RCP/D3/TCP under injected faults —
    bursty (Gilbert-Elliott) loss, link flapping with ECMP re-pinning,
    and switch crash-reboots that wipe scheduler soft state.

    Each sweep reports, per protocol and fault intensity: mean FCT over
    completed flows normalized to the same protocol's fault-free run,
    deadline-miss percentage, and watchdog aborts; alongside each table
    the per-cause counters ([abort.*], [fault.*], [drop.*]) of the
    highest-intensity row. [jobs] spreads the whole
    intensity × protocol × seed grid over the domain pool; [budget]
    bounds each run (wall clock and/or simulator events) so a
    pathological fault configuration cannot hang the whole driver — a
    tripped budget surfaces as {!Pdq_exec.Sweep.Sweep_errors}. *)

val run_all :
  ?jobs:int ->
  ?budget:Pdq_exec.Exec_opts.budget ->
  ?quick:bool ->
  Format.formatter ->
  unit ->
  unit
(** Run all three sweeps and print their tables, the per-cause counter
    summary, and the {!attribution} drill-down table. *)

val attribution : unit -> Common.table
(** Per-flow FCT attribution of one PDQ run under link flapping on a
    k=4 fat-tree: the downtime column shows the fault-induced share
    directly. Link MTBF 0.1 s, MTTR 30 ms, seed 1. *)
