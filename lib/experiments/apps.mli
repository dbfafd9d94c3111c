(** Application-level workloads — job completion time (JCT) and job
    deadline behaviour of PDQ vs RCP/D3/TCP ({!Pdq_apps}).

    The paper evaluates per-flow metrics; these drivers measure what
    the application sees: partition-aggregate and shuffle jobs whose
    stages are injected at runtime as their dependencies finish, so a
    protocol's preemption policy shows up directly in job latency.

    [quick] trims sweep points and seeds so the whole bench stays
    interactive; [jobs] spreads the (row × protocol × seed) scenario
    grid over that many worker domains. Results are identical for any
    [jobs]. *)

val tables : ?jobs:int -> quick:bool -> unit -> Common.table list
(** Four tables, in this order: mean JCT [ms] of partition-aggregate
    jobs vs fan-in width and vs stage depth (fan-in fixed), the job
    deadline-miss rate [%] vs fan-in width, and, from one PDQ(Full)
    run with an in-memory trace, each job's straggler flow with that
    flow's FCT decomposition ({!Pdq_apps.Job_forensics}). *)
