module Size_dist = Pdq_workload.Size_dist

type pattern =
  | Fan_out of { workers : int }
  | Fan_in of { workers : int }
  | Shuffle of { mappers : int; reducers : int }
  | Transfer

type stage = {
  label : string;
  pattern : pattern;
  sizes : Size_dist.t;
  deps : int list;
}

type t = { name : string; stages : stage array; deadline : float option }

let pattern_flow_count = function
  | Fan_out { workers } | Fan_in { workers } -> workers
  | Shuffle { mappers; reducers } -> mappers * reducers
  | Transfer -> 1

let pattern_label = function
  | Fan_out _ -> "fan-out"
  | Fan_in _ -> "fan-in"
  | Shuffle _ -> "shuffle"
  | Transfer -> "transfer"

let stage ?label ?(deps = []) ~sizes pattern =
  let label = match label with Some l -> l | None -> pattern_label pattern in
  { label; pattern; sizes; deps }

let validate_pattern i = function
  | Fan_out { workers } | Fan_in { workers } ->
      if workers < 1 then
        invalid_arg (Printf.sprintf "Job.make: stage %d needs >= 1 worker" i)
  | Shuffle { mappers; reducers } ->
      if mappers < 1 || reducers < 1 then
        invalid_arg
          (Printf.sprintf "Job.make: stage %d needs >= 1 mapper and reducer" i)
  | Transfer -> ()

let make ?deadline ~name stages =
  if stages = [] then invalid_arg "Job.make: a job needs at least one stage";
  (match deadline with
  | Some d when d <= 0. -> invalid_arg "Job.make: deadline must be positive"
  | _ -> ());
  let stages = Array.of_list stages in
  Array.iteri
    (fun i s ->
      validate_pattern i s.pattern;
      List.iter
        (fun d ->
          if d < 0 || d >= i then
            invalid_arg
              (Printf.sprintf
                 "Job.make: stage %d depends on %d, which is not an earlier \
                  stage"
                 i d))
        s.deps)
    stages;
  { name; stages; deadline }

(* Chain a list of stages linearly: stage i depends on stage i-1. *)
let chain stages =
  List.mapi (fun i s -> if i = 0 then s else { s with deps = [ i - 1 ] }) stages

let partition_aggregate ?deadline ?(rounds = 1) ~name ~workers ~response_sizes
    () =
  if rounds < 1 then invalid_arg "Job.partition_aggregate: rounds < 1";
  let request_sizes = Size_dist.fixed 2_000 in
  let round r =
    [
      stage
        ~label:(Printf.sprintf "partition[%d]" r)
        ~sizes:request_sizes
        (Fan_out { workers });
      stage
        ~label:(Printf.sprintf "aggregate[%d]" r)
        ~sizes:response_sizes
        (Fan_in { workers });
    ]
  in
  make ?deadline ~name (chain (List.concat (List.init rounds round)))

let map_reduce ?deadline ?(rounds = 1) ~name ~mappers ~reducers ~shuffle_sizes
    ~output_sizes () =
  if rounds < 1 then invalid_arg "Job.map_reduce: rounds < 1";
  let round r =
    [
      stage
        ~label:(Printf.sprintf "shuffle[%d]" r)
        ~sizes:shuffle_sizes
        (Shuffle { mappers; reducers });
      stage
        ~label:(Printf.sprintf "reduce[%d]" r)
        ~sizes:output_sizes
        (Fan_in { workers = reducers });
    ]
  in
  make ?deadline ~name (chain (List.concat (List.init rounds round)))

let pipeline ?deadline ~name ~depth ~sizes () =
  if depth < 1 then invalid_arg "Job.pipeline: depth < 1";
  make ?deadline ~name
    (chain
       (List.init depth (fun i ->
            stage ~label:(Printf.sprintf "hop[%d]" i) ~sizes Transfer)))

let flow_count t =
  Array.fold_left (fun n s -> n + pattern_flow_count s.pattern) 0 t.stages

let levels t =
  let lvl = Array.make (Array.length t.stages) 0 in
  Array.iteri
    (fun i s ->
      lvl.(i) <- List.fold_left (fun m d -> max m (lvl.(d) + 1)) 0 s.deps)
    t.stages;
  lvl

(* The expected serialized bytes at the stage's most loaded
   destination: the quantity a level's finishing time scales with. *)
let stage_weight s =
  let fan_in =
    match s.pattern with
    | Fan_out _ | Transfer -> 1
    | Fan_in { workers } -> workers
    | Shuffle { mappers; _ } -> mappers
  in
  float_of_int fan_in *. Size_dist.mean s.sizes

let stage_deadlines ?(floor = 3e-3) t =
  let n = Array.length t.stages in
  match t.deadline with
  | None -> Array.make n None
  | Some job_deadline ->
      let lvl = levels t in
      let nlevels = 1 + Array.fold_left max 0 lvl in
      let level_weight = Array.make nlevels 0. in
      Array.iteri
        (fun i s ->
          level_weight.(lvl.(i)) <- max level_weight.(lvl.(i)) (stage_weight s))
        t.stages;
      let total = Array.fold_left ( +. ) 0. level_weight in
      Array.mapi
        (fun i _ ->
          let share =
            if total > 0. then
              job_deadline *. level_weight.(lvl.(i)) /. total
            else job_deadline /. float_of_int nlevels
          in
          Some (Float.max floor share))
        t.stages
