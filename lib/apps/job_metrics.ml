module Json = Pdq_telemetry.Json

type stage_outcome = {
  label : string;
  flows : int;
  injected_at : float option;
  finished_at : float option;
  clean : bool;
  cct : float option;
}

type job_outcome = {
  name : string;
  arrival : float;
  deadline : float option;
  finished_at : float option;
  jct : float option;
  met_deadline : bool;
  failed : bool;
  straggler : int option;
  stages : stage_outcome array;
}

type report = {
  jobs : job_outcome array;
  completed : int;
  failed : int;
  unfinished : int;
  mean_jct : float;
  max_jct : float;
  mean_stage_cct : float;
  deadline_jobs : int;
  deadline_met : int;
}

let of_outcomes jobs =
  let completed = ref 0 and failed = ref 0 and unfinished = ref 0 in
  let jct_sum = ref 0. and jct_max = ref 0. and jct_n = ref 0 in
  let cct_sum = ref 0. and cct_n = ref 0 in
  let dl_jobs = ref 0 and dl_met = ref 0 in
  Array.iter
    (fun j ->
      (match (j.jct, j.failed) with
      | Some jct, _ ->
          incr completed;
          jct_sum := !jct_sum +. jct;
          jct_max := Float.max !jct_max jct;
          incr jct_n
      | None, true -> incr failed
      | None, false -> incr unfinished);
      if j.deadline <> None then begin
        incr dl_jobs;
        if j.met_deadline then incr dl_met
      end;
      Array.iter
        (fun s ->
          match s.cct with
          | Some c ->
              cct_sum := !cct_sum +. c;
              incr cct_n
          | None -> ())
        j.stages)
    jobs;
  {
    jobs;
    completed = !completed;
    failed = !failed;
    unfinished = !unfinished;
    mean_jct = (if !jct_n > 0 then !jct_sum /. float_of_int !jct_n else 0.);
    max_jct = !jct_max;
    mean_stage_cct =
      (if !cct_n > 0 then !cct_sum /. float_of_int !cct_n else 0.);
    deadline_jobs = !dl_jobs;
    deadline_met = !dl_met;
  }

let miss_rate r =
  if r.deadline_jobs = 0 then 0.
  else float_of_int (r.deadline_jobs - r.deadline_met)
       /. float_of_int r.deadline_jobs

let summary r =
  Printf.sprintf
    "jobs: %d completed, %d failed, %d unfinished | mean JCT %.3f ms | \
     deadline misses %d/%d"
    r.completed r.failed r.unfinished (1e3 *. r.mean_jct)
    (r.deadline_jobs - r.deadline_met)
    r.deadline_jobs

(* Hand-rolled JSON, matching the repo's no-dependency convention
   (Metrics, Sweep reports): fixed field order, explicit nulls for
   absent options, names escaped by [Json.escape]. Floats are %.9g —
   nine significant digits, enough for reading, not an exact round-trip
   of the double. *)
let buf_opt_float b = function
  | Some v -> Printf.bprintf b "%.9g" v
  | None -> Buffer.add_string b "null"

let buf_opt_int b = function
  | Some v -> Printf.bprintf b "%d" v
  | None -> Buffer.add_string b "null"

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"jobs\": [";
  Array.iteri
    (fun i j ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"name\": \"%s\", \"arrival\": %.9g, \"deadline\": "
        (Json.escape j.name) j.arrival;
      buf_opt_float b j.deadline;
      Buffer.add_string b ", \"jct\": ";
      buf_opt_float b j.jct;
      Printf.bprintf b ", \"met_deadline\": %b, \"failed\": %b, \"straggler\": "
        j.met_deadline j.failed;
      buf_opt_int b j.straggler;
      Buffer.add_string b ", \"stages\": [";
      Array.iteri
        (fun k s ->
          if k > 0 then Buffer.add_string b ", ";
          Printf.bprintf b
            "{\"label\": \"%s\", \"flows\": %d, \"injected_at\": "
            (Json.escape s.label) s.flows;
          buf_opt_float b s.injected_at;
          Buffer.add_string b ", \"finished_at\": ";
          buf_opt_float b s.finished_at;
          Printf.bprintf b ", \"clean\": %b, \"cct\": " s.clean;
          buf_opt_float b s.cct;
          Buffer.add_string b "}")
        j.stages;
      Buffer.add_string b "]}")
    r.jobs;
  Printf.bprintf b
    "], \"completed\": %d, \"failed\": %d, \"unfinished\": %d, \"mean_jct\": \
     %.9g, \"max_jct\": %.9g, \"mean_stage_cct\": %.9g, \"deadline_jobs\": \
     %d, \"deadline_met\": %d, \"miss_rate\": %.9g}"
    r.completed r.failed r.unfinished r.mean_jct r.max_jct r.mean_stage_cct
    r.deadline_jobs r.deadline_met (miss_rate r);
  Buffer.contents b

let pp ppf r =
  Array.iter
    (fun j ->
      Format.fprintf ppf "  %-10s arrival %7.2f ms  %s%s%s@." j.name
        (1e3 *. j.arrival)
        (match j.jct with
        | Some jct -> Printf.sprintf "jct %8.3f ms" (1e3 *. jct)
        | None when j.failed -> "FAILED        "
        | None -> "unfinished    ")
        (match j.deadline with
        | Some d ->
            Printf.sprintf "  deadline %5.1f ms %s" (1e3 *. d)
              (if j.met_deadline then "MET" else "MISSED")
        | None -> "")
        (match j.straggler with
        | Some f -> Printf.sprintf "  straggler flow %d" f
        | None -> ""))
    r.jobs;
  Format.fprintf ppf "%s@." (summary r)
