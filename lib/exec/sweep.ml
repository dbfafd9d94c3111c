module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Trace = Pdq_telemetry.Trace
module Json = Pdq_telemetry.Json

exception Sweep_errors of (int * exn) list

let () =
  Printexc.register_printer (function
    | Sweep_errors errs ->
        Some
          (Printf.sprintf "Pdq_exec.Sweep.Sweep_errors([%s])"
             (String.concat "; "
                (List.map
                   (fun (i, e) ->
                     Printf.sprintf "%d: %s" i (Printexc.to_string e))
                   errs)))
    | _ -> None)

let default_jobs () =
  match Sys.getenv_opt "PDQ_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j -> max 1 j
      | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Retry backoff *)

(* Jittered exponential backoff from 50 ms, capped at 2 s,
   deterministically seeded per (slot, attempt) so retry schedules do
   not depend on the worker count. *)
let backoff_delay ~index ~attempt =
  let exp = 0.05 *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min 2. exp in
  let rng = Rng.create (0xB0FF + (index * 7919) + attempt) in
  capped *. (0.5 +. Rng.float rng)

(* ------------------------------------------------------------------ *)
(* Resilience report *)

type report = {
  total : int;
  ok : int;
  resumed : int;
  stale : int;
  failed : int;
  timed_out : int;
  skipped : int;
  attempts : int;
  wall : float;
  slots : (int * string) list;
  notes : (int * string) list;
}

let with_notes r ~notes =
  { r with notes = List.sort (fun (a, _) (b, _) -> compare a b) notes }

let report_of ~resumed ~stale ~attempts ~wall tasks =
  let count p = List.length (List.filter p tasks) in
  {
    total = List.length tasks;
    ok = count Task.is_ok;
    resumed;
    stale;
    failed = count (function Task.Failed _ -> true | _ -> false);
    timed_out = count (function Task.Timed_out _ -> true | _ -> false);
    skipped = count (function Task.Skipped -> true | _ -> false);
    attempts;
    wall;
    slots =
      List.mapi (fun i t -> (i, t)) tasks
      |> List.filter (fun (_, t) -> not (Task.is_ok t))
      |> List.map (fun (i, t) -> (i, Format.asprintf "%a" Task.pp t));
    notes = [];
  }

(* Deterministic: counts and per-slot causes only — wall-clock numbers
   stay out of the pretty report so sweep stdout is reproducible (they
   are in the JSON report for machines). *)
let pp_report ppf r =
  Format.fprintf ppf "sweep: %d/%d ok%s, %d failed, %d timed-out, %d skipped@."
    r.ok r.total
    (if r.resumed > 0 then Printf.sprintf " (%d resumed)" r.resumed else "")
    r.failed r.timed_out r.skipped;
  if r.stale > 0 then
    Format.fprintf ppf
      "  warning: %d checkpoint entr%s matched no scenario digest (stale \
       checkpoint — inputs changed since it was written)@."
      r.stale
      (if r.stale = 1 then "y" else "ies");
  List.iter
    (fun (i, cause) -> Format.fprintf ppf "  slot %d: %s@." i cause)
    r.slots;
  List.iter
    (fun (i, note) -> Format.fprintf ppf "  slot %d note: %s@." i note)
    r.notes

let report_to_json r =
  let tagged tag (i, text) =
    Printf.sprintf "{\"slot\":%d,\"%s\":\"%s\"}" i tag (Json.escape text)
  in
  Printf.sprintf
    "{\"total\":%d,\"ok\":%d,\"resumed\":%d,\"stale\":%d,\"failed\":%d,\
     \"timed_out\":%d,\"skipped\":%d,\"attempts\":%d,\"wall\":%.3f,\
     \"slots\":[%s],\"notes\":[%s]}"
    r.total r.ok r.resumed r.stale r.failed r.timed_out r.skipped r.attempts
    r.wall
    (String.concat "," (List.map (tagged "cause") r.slots))
    (String.concat "," (List.map (tagged "note") r.notes))

(* ------------------------------------------------------------------ *)
(* Checkpoint file: one JSONL line per Ok slot, keyed by the content
   hash of the input, with the encoded value in hex. A torn final line
   (kill -9 mid-write) fails to parse and is skipped; [supervise] starts
   a fresh line after it before appending. *)

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let unhex s =
  if String.length s mod 2 <> 0 then invalid_arg "unhex: odd length";
  String.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let checkpoint_line ~key ~index ~value =
  Printf.sprintf "{\"k\":\"%s\",\"n\":%d,\"v\":\"%s\"}" (Json.escape key) index
    (hex value)

let parse_checkpoint_line line =
  match
    let fields = Json.obj (Json.parse line) in
    (Json.str fields "k", unhex (Json.str fields "v"))
  with
  | entry -> Some entry
  | exception (Json.Parse_error _ | Invalid_argument _ | Failure _) -> None

(* Whether a non-empty file does not end in a newline. *)
let torn_tail path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let n = in_channel_length ic in
  n > 0
  && begin
       seek_in ic (n - 1);
       input_char ic <> '\n'
     end

let load_checkpoint path =
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match parse_checkpoint_line (input_line ic) with
         | Some (k, v) -> Hashtbl.replace tbl k v
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  tbl

(* ------------------------------------------------------------------ *)
(* The supervised executor *)

type 'b supervised = { tasks : 'b Task.t list; report : report }

let supervise ?jobs ?budget ?(attempts = 1) ?(keep_going = true)
    ?checkpoint ?resume ?codec ?trace ~key f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let run_attempt x ~start =
    match budget with
    | Some b -> Exec_opts.with_budget_from b ~start (fun () -> f x)
    | None -> f x
  in
  let n = List.length xs in
  let inputs = Array.of_list xs in
  let keys = Array.map key inputs in
  let slots : 'b Task.t option array = Array.make n None in
  let stop = Atomic.make false in
  let next = Atomic.make 0 in
  let attempts_run = Atomic.make 0 in
  let sweep_start = Unix.gettimeofday () in
  (* Serializes trace emission and checkpoint appends across worker
     domains. *)
  let io_lock = Mutex.create () in
  let locked fn =
    Mutex.lock io_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock io_lock) fn
  in
  (* One [Trace.Sweep_task] per slot lifecycle step. *)
  let emit ~index ~key ~state ~attempts ~elapsed ~detail =
    match trace with
    | Some bus ->
        locked (fun () ->
            Trace.emit bus
              (Trace.Sweep_task
                 { index; key; state; attempts; elapsed; detail }))
    | None -> ()
  in
  let emit_failed i (f : Task.failure) =
    emit ~index:i ~key:keys.(i) ~state:"failed" ~attempts:f.Task.attempts
      ~elapsed:f.Task.elapsed ~detail:f.Task.exn
  in
  let codec_or_fail what =
    match codec with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Sweep.supervise: %s requires ~codec" what)
  in
  (* Resume: settle every slot whose key has a decodable value in the
     checkpoint before any worker starts. *)
  let resumed = ref 0 and stale = ref 0 in
  (match resume with
  | None -> ()
  | Some path ->
      let codec = codec_or_fail "~resume" in
      let tbl = load_checkpoint path in
      Array.iteri
        (fun i k ->
          match Hashtbl.find_opt tbl k with
          | None -> ()
          | Some v -> (
              match codec.Task.decode v with
              | r ->
                  slots.(i) <- Some (Task.Ok r);
                  incr resumed;
                  emit ~index:i ~key:k ~state:"resumed" ~attempts:0
                    ~elapsed:0. ~detail:""
              | exception _ -> ()))
        keys;
      (* Checkpoint entries whose digest matches no slot: the inputs
         changed since the checkpoint was written (edited scenario,
         different seed grid, rebuilt binary re-keying closures). Those
         slots silently re-execute — correct but expensive — so say so
         loudly instead of looking like a quiet full re-run. *)
      let wanted = Hashtbl.create (Array.length keys) in
      Array.iter (fun k -> Hashtbl.replace wanted k ()) keys;
      Hashtbl.iter
        (fun k _ -> if not (Hashtbl.mem wanted k) then incr stale)
        tbl;
      if !stale > 0 then
        Printf.eprintf
          "sweep: warning: %d of %d checkpoint entr%s in %s match no \
           scenario digest; those inputs changed and will re-execute from \
           scratch\n%!"
          !stale (Hashtbl.length tbl)
          (if !stale = 1 then "y" else "ies")
          path);
  let ckpt_chan =
    match checkpoint with
    | None -> None
    | Some path ->
        let _ = codec_or_fail "~checkpoint" in
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        (* A kill -9 mid-append leaves a torn last line; start a fresh
           one so the next entry is not glued onto the fragment. *)
        if torn_tail path then output_char oc '\n';
        Some oc
  in
  let write_checkpoint i r =
    match (ckpt_chan, codec) with
    | Some oc, Some c ->
        locked (fun () ->
            output_string oc
              (checkpoint_line ~key:keys.(i) ~index:i ~value:(c.Task.encode r));
            output_char oc '\n';
            flush oc)
    | _ -> ()
  in
  let settle i task =
    slots.(i) <- Some task;
    match task with
    | Task.Ok _ | Task.Skipped -> ()
    | Task.Failed _ | Task.Timed_out _ ->
        if not keep_going then Atomic.set stop true
  in
  let attempt_slot i =
    let t0 = Unix.gettimeofday () in
    let rec go attempt =
      Atomic.incr attempts_run;
      match run_attempt inputs.(i) ~start:(Unix.gettimeofday ()) with
      | r ->
          settle i (Task.Ok r);
          write_checkpoint i r;
          emit ~index:i ~key:keys.(i) ~state:"ok" ~attempts:attempt
            ~elapsed:(Unix.gettimeofday () -. t0)
            ~detail:""
      | exception Sim.Cancelled { reason; _ } ->
          (* Budgets trip deterministically for a given input; retrying
             a timed-out slot would just burn the budget again. *)
          let timeout =
            {
              Task.budget = reason;
              attempts = attempt;
              elapsed = Unix.gettimeofday () -. t0;
            }
          in
          settle i (Task.Timed_out timeout);
          emit ~index:i ~key:keys.(i) ~state:"timed-out" ~attempts:attempt
            ~elapsed:timeout.Task.elapsed ~detail:reason
      | exception e ->
          let backtrace = Printexc.get_backtrace () in
          if attempt < attempts then begin
            let delay = backoff_delay ~index:i ~attempt in
            emit ~index:i ~key:keys.(i) ~state:"retry" ~attempts:attempt
              ~elapsed:delay ~detail:(Printexc.to_string e);
            Unix.sleepf delay;
            go (attempt + 1)
          end
          else begin
            let failure =
              {
                Task.exn = Printexc.to_string e;
                backtrace;
                attempts = attempt;
                elapsed = Unix.gettimeofday () -. t0;
              }
            in
            settle i (Task.Failed failure);
            emit_failed i failure
          end
    in
    go 1
  in
  (* Work-stealing claim loop; [claimed] publishes the in-flight index
     of each worker so a crashed worker's slot can be settled. *)
  let workers = max 1 (min jobs n) in
  let claimed = Array.init workers (fun _ -> Atomic.make (-1)) in
  let worker w () =
    let rec loop () =
      if not (Atomic.get stop) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Atomic.set claimed.(w) i;
          if Option.is_none slots.(i) then attempt_slot i;
          Atomic.set claimed.(w) (-1);
          loop ()
        end
      end
    in
    loop ()
  in
  (* A worker that died outside the per-attempt catch (an I/O error in
     a sink or checkpoint, a trace sink that raised) has its claimed
     slot settled as Failed. Returns whether unclaimed work remains, in
     which case the caller restarts the worker. *)
  let crashed w e =
    let i = match Atomic.get claimed.(w) with -1 -> None | i -> Some i in
    let worker = Printf.sprintf "worker:%d" w in
    emit ~index:(Option.value ~default:(-1) i) ~key:worker ~state:"crashed"
      ~attempts:0 ~elapsed:0. ~detail:(Printexc.to_string e);
    (match i with
    | Some i when Option.is_none slots.(i) ->
        let failure =
          { Task.exn = Printexc.to_string e; backtrace = ""; attempts = 1;
            elapsed = 0. }
        in
        settle i (Task.Failed failure);
        emit_failed i failure
    | _ -> ());
    Atomic.set claimed.(w) (-1);
    let restart = Atomic.get next < n && not (Atomic.get stop) in
    if restart then
      emit ~index:(-1) ~key:worker ~state:"respawned" ~attempts:0 ~elapsed:0.
        ~detail:"";
    restart
  in
  (* The calling domain is worker 0; only the other [workers - 1] are
     spawned, so a one-worker sweep spawns nothing. *)
  let spawn w = (w, Domain.spawn (worker w)) in
  let pool = ref (List.init (workers - 1) (fun k -> spawn (k + 1))) in
  let rec run_caller () =
    match worker 0 () with
    | () -> ()
    | exception e -> if crashed 0 e then run_caller ()
  in
  run_caller ();
  while !pool <> [] do
    let (w, d), rest =
      match !pool with x :: tl -> (x, tl) | [] -> assert false
    in
    pool := rest;
    match Domain.join d with
    | () -> ()
    | exception e ->
        if crashed w e then pool := spawn w :: !pool
  done;
  Option.iter close_out ckpt_chan;
  let tasks =
    Array.to_list
      (Array.map (function Some t -> t | None -> Task.Skipped) slots)
  in
  let report =
    report_of ~resumed:!resumed ~stale:!stale ~attempts:(Atomic.get attempts_run)
      ~wall:(Unix.gettimeofday () -. sweep_start)
      tasks
  in
  { tasks; report }

(* ------------------------------------------------------------------ *)
(* All-or-nothing execution: [supervise] with every exception caught
   inside the attempt, so the original exception values (e.g.
   [Sim.Cancelled] for a tripped budget) survive into [Sweep_errors]. *)

let map ?jobs ?budget f xs =
  let sup =
    supervise ?jobs ?budget
      ~key:(fun _ -> "")
      (fun x -> match f x with r -> Ok r | exception e -> Error e)
      xs
  in
  (* A non-Ok slot means a worker died outside the attempt. *)
  let outcomes =
    List.map
      (function
        | Task.Ok r -> r
        | t -> Error (Failure (Option.value (Task.cause t) ~default:"")))
      sup.tasks
  in
  match
    List.concat
      (List.mapi
         (fun i -> function Ok _ -> [] | Error e -> [ (i, e) ])
         outcomes)
  with
  | [] -> List.map Result.get_ok outcomes
  | errs -> raise (Sweep_errors errs)

let average ?jobs ~seeds f =
  match seeds with
  | [] -> invalid_arg "Sweep.average: no seeds"
  | _ ->
      let vs = map ?jobs f seeds in
      List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)
