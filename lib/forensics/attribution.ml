module Trace = Pdq_telemetry.Trace
module Json = Pdq_telemetry.Json
module Units = Pdq_engine.Units

type components = {
  handshake : float;
  serialization : float;
  paused : float;
  recovery : float;
  downtime : float;
  residual : float;
}

let zero =
  {
    handshake = 0.;
    serialization = 0.;
    paused = 0.;
    recovery = 0.;
    downtime = 0.;
    residual = 0.;
  }

(* The residual is defined as the remainder against the measured FCT,
   with a fixed left-to-right summation order, so

     handshake +. serialization +. paused +. recovery +. downtime
       +. residual = fct

   holds exactly (not merely to rounding): the five components are all in
   [0, fct], so the subtraction computing the residual is exact by
   Sterbenz whenever their sum is within a factor of two of fct. *)
let component_sum c =
  c.handshake +. c.serialization +. c.paused +. c.recovery +. c.downtime

let total c = component_sum c +. c.residual

type flow_report = {
  flow : int;
  size : int option;
  fct : float;
  ideal : float option;
  c : components;
  blamed : (int * float) list;
  paused_unattributed : float;
  retransmits : int;
}

type report = {
  flows : flow_report list;
  terminated : int list;
  aborted : (int * string) list;
  unfinished : int list;
  errors : Spans.error list;
  totals : components;
  total_fct : float;
  blame : (int * int * float) list;
  paused_preempted : float;
  paused_controller : float;
  tail : (int * float * components) option;
}

(* ------------------------------------------------------------------ *)

let flow_report (fs : Spans.flow_spans) ~fct =
  let handshake = ref 0.
  and serialization = ref 0.
  and paused = ref 0.
  and recovery = ref 0.
  and downtime = ref 0.
  and unattributed = ref 0. in
  let blamed : (int, float) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (s : Spans.span) ->
      let d = Spans.duration s in
      match s.Spans.phase with
      | Spans.Handshake -> handshake := !handshake +. d
      | Spans.Sending -> serialization := !serialization +. d
      | Spans.Paused { preempted_by; _ } -> (
          paused := !paused +. d;
          match preempted_by with
          | Some p ->
              Hashtbl.replace blamed p
                (d +. Option.value ~default:0. (Hashtbl.find_opt blamed p))
          | None -> unattributed := !unattributed +. d)
      | Spans.Recovery { fault_induced; _ } ->
          if fault_induced then downtime := !downtime +. d
          else recovery := !recovery +. d)
    fs.Spans.spans;
  let partial =
    {
      handshake = !handshake;
      serialization = !serialization;
      paused = !paused;
      recovery = !recovery;
      downtime = !downtime;
      residual = 0.;
    }
  in
  let c = { partial with residual = fct -. component_sum partial } in
  let ideal =
    match fs.Spans.size with
    | Some size when fs.Spans.peak_rate > 0. ->
        Some (Units.bytes_to_bits size /. fs.Spans.peak_rate)
    | _ -> None
  in
  {
    flow = fs.Spans.flow;
    size = fs.Spans.size;
    fct;
    ideal;
    c;
    blamed =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) blamed []);
    paused_unattributed = !unattributed;
    retransmits = fs.Spans.retransmits;
  }

let add (a : components) (b : components) =
  {
    handshake = a.handshake +. b.handshake;
    serialization = a.serialization +. b.serialization;
    paused = a.paused +. b.paused;
    recovery = a.recovery +. b.recovery;
    downtime = a.downtime +. b.downtime;
    residual = a.residual +. b.residual;
  }

let of_spans (sp : Spans.t) =
  let flows, terminated, aborted, unfinished =
    List.fold_left
      (fun (fl, te, ab, un) (fs : Spans.flow_spans) ->
        match fs.Spans.outcome with
        | Spans.Completed { fct } -> (flow_report fs ~fct :: fl, te, ab, un)
        | Spans.Terminated -> (fl, fs.Spans.flow :: te, ab, un)
        | Spans.Aborted { cause } -> (fl, te, (fs.Spans.flow, cause) :: ab, un)
        | Spans.Unfinished -> (fl, te, ab, fs.Spans.flow :: un))
      ([], [], [], []) sp.Spans.flows
  in
  let flows = List.rev flows in
  let totals = List.fold_left (fun acc f -> add acc f.c) zero flows in
  let total_fct = List.fold_left (fun acc f -> acc +. f.fct) 0. flows in
  let blame =
    List.concat_map
      (fun f -> List.map (fun (p, d) -> (p, f.flow, d)) f.blamed)
      flows
    |> List.sort compare
  in
  let paused_preempted =
    List.fold_left
      (fun acc f ->
        List.fold_left (fun acc (_, d) -> acc +. d) acc f.blamed)
      0. flows
  in
  let paused_controller =
    List.fold_left (fun acc f -> acc +. f.paused_unattributed) 0. flows
  in
  let tail =
    match flows with
    | [] -> None
    | _ ->
        let by_fct =
          List.sort
            (fun a b -> compare (a.fct, a.flow) (b.fct, b.flow))
            flows
        in
        let n = List.length by_fct in
        let idx =
          min (n - 1)
            (max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
        in
        let f = List.nth by_fct idx in
        Some (f.flow, f.fct, f.c)
  in
  {
    flows;
    terminated = List.rev terminated;
    aborted = List.rev aborted;
    unfinished = List.rev unfinished;
    errors = sp.Spans.errors;
    totals;
    total_fct;
    blame;
    paused_preempted;
    paused_controller;
    tail;
  }

let of_events events = of_spans (Spans.reconstruct events)

(* ------------------------------------------------------------------ *)
(* Rendering.  Everything below is deterministic: flows are sorted by
   id, floats use one fixed format, and no wall-clock or locale input
   sneaks in — so re-rendering a replayed trace reproduces the live
   report byte for byte. *)

let fl = Printf.sprintf "%.9g"
let ms x = Printf.sprintf "%.3f" (1e3 *. x)

let to_text r =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "FCT attribution (%d completed flow%s)\n" (List.length r.flows)
    (if List.length r.flows = 1 then "" else "s");
  pr
    "%6s %10s %10s %10s %10s %10s %10s %10s %10s %5s\n"
    "flow" "fct_ms" "hshake_ms" "send_ms" "paused_ms" "recov_ms" "down_ms"
    "resid_ms" "ideal_ms" "rtx";
  List.iter
    (fun f ->
      pr "%6d %10s %10s %10s %10s %10s %10s %10s %10s %5d\n" f.flow
        (ms f.fct) (ms f.c.handshake) (ms f.c.serialization) (ms f.c.paused)
        (ms f.c.recovery) (ms f.c.downtime) (ms f.c.residual)
        (match f.ideal with Some i -> ms i | None -> "-")
        f.retransmits)
    r.flows;
  pr "totals: fct=%s hshake=%s send=%s paused=%s recov=%s down=%s resid=%s (s)\n"
    (fl r.total_fct) (fl r.totals.handshake) (fl r.totals.serialization)
    (fl r.totals.paused) (fl r.totals.recovery) (fl r.totals.downtime)
    (fl r.totals.residual);
  pr "paused by cause: preempted=%s controller=%s (s)\n" (fl r.paused_preempted)
    (fl r.paused_controller);
  if r.blame <> [] then begin
    pr "blame (preempter -> victim):\n";
    List.iter
      (fun (p, v, d) -> pr "  flow %d paused flow %d for %s ms\n" p v (ms d))
      r.blame
  end;
  (match r.tail with
  | Some (flow, fct, c) ->
      pr
        "p99 tail: flow %d fct=%s ms (hshake=%s send=%s paused=%s recov=%s \
         down=%s resid=%s)\n"
        flow (ms fct) (ms c.handshake) (ms c.serialization) (ms c.paused)
        (ms c.recovery) (ms c.downtime) (ms c.residual)
  | None -> ());
  if r.terminated <> [] then
    pr "terminated: %s\n"
      (String.concat "," (List.map string_of_int r.terminated));
  if r.aborted <> [] then
    pr "aborted: %s\n"
      (String.concat ","
         (List.map (fun (f, c) -> Printf.sprintf "%d(%s)" f c) r.aborted));
  if r.unfinished <> [] then
    pr "unfinished: %s\n"
      (String.concat "," (List.map string_of_int r.unfinished));
  List.iter
    (fun (e : Spans.error) ->
      pr "malformed: flow %d at t=%s: %s\n" e.Spans.flow (fl e.Spans.at)
        e.Spans.message)
    r.errors;
  Buffer.contents b

let to_csv r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "flow,size,fct,handshake,serialization,paused,recovery,downtime,residual,ideal,retransmits\n";
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%d\n" f.flow
           (match f.size with Some s -> string_of_int s | None -> "")
           (fl f.fct) (fl f.c.handshake) (fl f.c.serialization)
           (fl f.c.paused) (fl f.c.recovery) (fl f.c.downtime)
           (fl f.c.residual)
           (match f.ideal with Some i -> fl i | None -> "")
           f.retransmits))
    r.flows;
  Buffer.contents b

let json_components c =
  Printf.sprintf
    {|{"handshake":%s,"serialization":%s,"paused":%s,"recovery":%s,"downtime":%s,"residual":%s}|}
    (fl c.handshake) (fl c.serialization) (fl c.paused) (fl c.recovery)
    (fl c.downtime) (fl c.residual)

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"flows\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           {|{"flow":%d%s,"fct":%s,"components":%s%s,"retransmits":%d%s}|}
           f.flow
           (match f.size with
           | Some s -> Printf.sprintf {|,"size":%d|} s
           | None -> "")
           (fl f.fct) (json_components f.c)
           (match f.ideal with
           | Some i -> Printf.sprintf {|,"ideal":%s|} (fl i)
           | None -> "")
           f.retransmits
           (if f.blamed = [] then ""
            else
              Printf.sprintf {|,"paused_by":{%s}|}
                (String.concat ","
                   (List.map
                      (fun (p, d) -> Printf.sprintf {|"%d":%s|} p (fl d))
                      f.blamed)))))
    r.flows;
  Buffer.add_string b
    (Printf.sprintf
       {|],"totals":%s,"total_fct":%s,"paused_preempted":%s,"paused_controller":%s|}
       (json_components r.totals) (fl r.total_fct) (fl r.paused_preempted)
       (fl r.paused_controller));
  Buffer.add_string b
    (Printf.sprintf {|,"blame":[%s]|}
       (String.concat ","
          (List.map
             (fun (p, v, d) ->
               Printf.sprintf {|{"preempter":%d,"victim":%d,"seconds":%s}|} p v
                 (fl d))
             r.blame)));
  (match r.tail with
  | Some (flow, fct, c) ->
      Buffer.add_string b
        (Printf.sprintf {|,"p99":{"flow":%d,"fct":%s,"components":%s}|} flow
           (fl fct) (json_components c))
  | None -> ());
  if r.terminated <> [] then
    Buffer.add_string b
      (Printf.sprintf {|,"terminated":[%s]|}
         (String.concat "," (List.map string_of_int r.terminated)));
  if r.aborted <> [] then
    Buffer.add_string b
      (Printf.sprintf {|,"aborted":[%s]|}
         (String.concat ","
            (List.map
               (fun (f, c) ->
                 Printf.sprintf {|{"flow":%d,"cause":"%s"}|} f
                   (Json.escape c))
               r.aborted)));
  if r.unfinished <> [] then
    Buffer.add_string b
      (Printf.sprintf {|,"unfinished":[%s]|}
         (String.concat "," (List.map string_of_int r.unfinished)));
  if r.errors <> [] then
    Buffer.add_string b
      (Printf.sprintf {|,"malformed":[%s]|}
         (String.concat ","
            (List.map
               (fun (e : Spans.error) ->
                 Printf.sprintf {|{"flow":%d,"at":%s,"error":"%s"}|}
                   e.Spans.flow (fl e.Spans.at)
                   (Json.escape e.Spans.message))
               r.errors)));
  Buffer.add_string b "}";
  Buffer.contents b
