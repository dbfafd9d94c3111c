(** Job arrival processes: Poisson job generation over the existing
    {!Pdq_workload.Arrivals} / {!Pdq_workload.Size_dist} machinery. *)

val plans :
  rng:Pdq_engine.Rng.t ->
  hosts:int array ->
  ?rate:float ->
  ?floor:float ->
  count:int ->
  job:(index:int -> Job.t) ->
  unit ->
  Job_plan.t list
(** Draw arrival times, then build and compile job [index]
    (0-based) at each, threading one [rng] through every draw in a
    fixed order so the whole workload is a pure function of the seed.
    [floor] is the deadline-propagation floor
    ({!Job.stage_deadlines}). *)
