(** Runtime job execution over the telemetry bus.

    A tracker watches the run's trace for terminal flow events
    ([Flow_completed] / [Flow_terminated] / [Flow_aborted]), detects
    stage completion — a stage finishes when {e every} constituent
    flow reaches a terminal state — and synchronously injects each
    dependent stage's flows through the runner's dynamic spawn hook
    the moment its last dependency finishes. Because terminal trace
    events are emitted {e before} the flow is counted closed
    ({!Pdq_transport.Context}), the injection keeps the open-flow
    count positive and the run, which stops once every flow is closed,
    can never stop between stages of an unfinished job.

    A stage that finishes unclean (a flow terminated or aborted
    instead of completing) fails its job: downstream stages are never
    injected, and the job reports as failed.

    Injection consumes no randomness — everything random was fixed in
    the {!Job_plan.t} — so results are deterministic and independent
    of domain count or sink order.

    The tracker is an {e application driver}, the sanctioned exception
    to the observe-only sink contract: install it through
    {!Pdq_transport.Runner.options.driver}, never as a plain
    telemetry sink. *)

type t

val initial_specs : Job_plan.t list -> Pdq_transport.Context.flow_spec list
(** The flows the runner must register at build time: every initially
    runnable stage of every plan (in plan order, stages in index
    order), starting at the job's arrival time. These are exactly the
    flows {!create} expects to own ids [0 .. n - 1] in this order: the
    job flows are the run's whole spec list. *)

val create :
  spawn:(Pdq_transport.Context.flow_spec -> Pdq_transport.Context.flow) ->
  Job_plan.t list ->
  t

val sink : t -> Pdq_telemetry.Trace.sink
(** The bus tap driving stage detection and injection. *)

val report : t -> Job_metrics.report
(** Outcomes as of now (normally: after the run). Completion times
    are taken verbatim from the bus clock, so a completed job's JCT
    equals its last flow's completion time minus the job arrival,
    bit-exactly. *)
