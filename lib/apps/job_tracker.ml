module Trace = Pdq_telemetry.Trace
module Context = Pdq_transport.Context

type stage_state =
  | Waiting
  | Running of { mutable remaining : int; mutable clean : bool }
  | Done of { at : float; clean : bool }

type job_state = {
  plan : Job_plan.t;
  states : stage_state array;
  injected_at : float option array;
  mutable last_flow : int;  (** Flow of the latest terminal event. *)
  mutable last_time : float;
  mutable failed : bool;
}

type t = {
  jobs : job_state array;
  flow_of : (int, int * int) Hashtbl.t;  (** flow id → (job, stage). *)
  spawn : Context.flow_spec -> Context.flow;
}

(* A stage is initially runnable when every dependency is "pre-done":
   pre-done stages have no flows at all (a fully colocated shuffle on
   a tiny topology) and all-pre-done dependencies. Dependencies point
   backwards, so one pass in index order settles everything. *)
let initial_layout (plan : Job_plan.t) =
  let n = Array.length plan.Job_plan.stages in
  let pre_done = Array.make n false in
  let initial = Array.make n false in
  Array.iteri
    (fun i (s : Job_plan.stage_plan) ->
      let ready = List.for_all (fun d -> pre_done.(d)) s.Job_plan.deps in
      if ready then
        if Array.length s.Job_plan.flows = 0 then pre_done.(i) <- true
        else initial.(i) <- true)
    plan.Job_plan.stages;
  (pre_done, initial)

let spec_of_site (site : Job_plan.flow_site) ~deadline ~start =
  {
    Context.src = site.Job_plan.src;
    dst = site.Job_plan.dst;
    size = site.Job_plan.size;
    deadline;
    start;
  }

let initial_specs plans =
  List.concat_map
    (fun (plan : Job_plan.t) ->
      let _, initial = initial_layout plan in
      List.concat
        (List.init (Array.length plan.Job_plan.stages) (fun i ->
             if not initial.(i) then []
             else
               let s = plan.Job_plan.stages.(i) in
               Array.to_list s.Job_plan.flows
               |> List.map
                    (spec_of_site ~deadline:s.Job_plan.deadline
                       ~start:plan.Job_plan.arrival))))
    plans

let create ~spawn plans =
  let t =
    {
      jobs =
        Array.of_list
          (List.map
             (fun (plan : Job_plan.t) ->
               let n = Array.length plan.Job_plan.stages in
               let pre_done, initial = initial_layout plan in
               {
                 plan;
                 states =
                   Array.init n (fun i ->
                       if pre_done.(i) then
                         Done { at = plan.Job_plan.arrival; clean = true }
                       else if initial.(i) then
                         Running
                           {
                             remaining =
                               Array.length
                                 plan.Job_plan.stages.(i).Job_plan.flows;
                             clean = true;
                           }
                       else Waiting);
                 injected_at =
                   Array.init n (fun i ->
                       if pre_done.(i) || initial.(i) then
                         Some plan.Job_plan.arrival
                       else None);
                 last_flow = -1;
                 last_time = neg_infinity;
                 failed = false;
               })
             plans);
      flow_of = Hashtbl.create 64;
      spawn;
    }
  in
  (* Mirror the id assignment the runner performs on initial_specs. *)
  let next = ref 0 in
  Array.iteri
    (fun ji j ->
      let _, initial = initial_layout j.plan in
      Array.iteri
        (fun si (s : Job_plan.stage_plan) ->
          if initial.(si) then
            Array.iter
              (fun _ ->
                Hashtbl.replace t.flow_of !next (ji, si);
                incr next)
              s.Job_plan.flows)
        j.plan.Job_plan.stages)
    t.jobs;
  t

(* Stage [si] of job [ji] reached its last terminal event at [at].
   Mark it done; a clean finish may make dependent stages runnable
   (inject their flows now, at the bus timestamp), an unclean one
   fails the whole job. Recursion only via empty stages, which a
   compiled plan bounds by its stage count. *)
let rec finish_stage t ji si ~at ~clean =
  let j = t.jobs.(ji) in
  j.states.(si) <- Done { at; clean };
  if not clean then j.failed <- true
  else
    Array.iteri
      (fun k (s : Job_plan.stage_plan) ->
        match j.states.(k) with
        | Waiting
          when List.mem si s.Job_plan.deps
               && List.for_all
                    (fun d ->
                      match j.states.(d) with
                      | Done { clean = true; _ } -> true
                      | _ -> false)
                    s.Job_plan.deps ->
            inject t ji k ~at
        | _ -> ())
      j.plan.Job_plan.stages

and inject t ji k ~at =
  let j = t.jobs.(ji) in
  let s = j.plan.Job_plan.stages.(k) in
  j.injected_at.(k) <- Some at;
  let n = Array.length s.Job_plan.flows in
  if n = 0 then finish_stage t ji k ~at ~clean:true
  else begin
    j.states.(k) <- Running { remaining = n; clean = true };
    Array.iter
      (fun site ->
        let f =
          t.spawn (spec_of_site site ~deadline:s.Job_plan.deadline ~start:at)
        in
        Hashtbl.replace t.flow_of f.Context.id (ji, k))
      s.Job_plan.flows
  end

let on_terminal t ~time ~flow ~completed =
  match Hashtbl.find_opt t.flow_of flow with
  | None -> ()
  | Some (ji, si) ->
      (* A terminated flow's in-flight packets can still complete the
         transfer later; count each flow's first terminal event only. *)
      Hashtbl.remove t.flow_of flow;
      let j = t.jobs.(ji) in
      if time >= j.last_time then begin
        j.last_time <- time;
        j.last_flow <- flow
      end;
      (match j.states.(si) with
      | Running r ->
          r.remaining <- r.remaining - 1;
          if not completed then r.clean <- false;
          if r.remaining = 0 then finish_stage t ji si ~at:time ~clean:r.clean
      | Waiting | Done _ -> ())

let sink t =
  Trace.callback (fun ~time ev ->
      match ev with
      | Trace.Flow_completed { flow; _ } ->
          on_terminal t ~time ~flow ~completed:true
      | Trace.Flow_terminated { flow } ->
          on_terminal t ~time ~flow ~completed:false
      | Trace.Flow_aborted { flow; _ } ->
          on_terminal t ~time ~flow ~completed:false
      | _ -> ())

let job_outcome (j : job_state) =
  let n = Array.length j.plan.Job_plan.stages in
  let all_done_clean =
    Array.for_all
      (function Done { clean; _ } -> clean | _ -> false)
      j.states
  in
  let stages =
    Array.init n (fun i ->
        let s = j.plan.Job_plan.stages.(i) in
        let injected_at = j.injected_at.(i) in
        let finished_at, clean =
          match j.states.(i) with
          | Done { at; clean } -> (Some at, clean)
          | Running _ | Waiting -> (None, false)
        in
        {
          Job_metrics.label = s.Job_plan.label;
          flows = Array.length s.Job_plan.flows;
          injected_at;
          finished_at;
          clean;
          cct =
            (match (injected_at, finished_at, clean) with
            | Some i0, Some f, true -> Some (f -. i0)
            | _ -> None);
        })
  in
  let finished_at =
    (* The job finishes with its last flow's terminal event, taken
       verbatim from the bus clock: JCT = that time − arrival,
       bit-exactly. *)
    if all_done_clean && j.last_time > neg_infinity then Some j.last_time
    else if all_done_clean then Some j.plan.Job_plan.arrival
    else None
  in
  let jct = Option.map (fun f -> f -. j.plan.Job_plan.arrival) finished_at in
  {
    Job_metrics.name = j.plan.Job_plan.name;
    arrival = j.plan.Job_plan.arrival;
    deadline = j.plan.Job_plan.deadline;
    finished_at;
    jct;
    met_deadline =
      (match (jct, j.plan.Job_plan.deadline) with
      | Some jct, Some d -> jct <= d
      | Some _, None -> true
      | None, _ -> false);
    failed = j.failed;
    straggler = (if all_done_clean && j.last_flow >= 0 then Some j.last_flow
                 else None);
    stages;
  }

let report t = Job_metrics.of_outcomes (Array.map job_outcome t.jobs)
