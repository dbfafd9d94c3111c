module Rng = Pdq_engine.Rng
module Json = Pdq_telemetry.Json

type event =
  | Reorder of { a : int; b : int; p : float; hold : float }
  | Duplicate of { a : int; b : int; p : float }
  | Corrupt of { a : int; b : int; p : float }
  | Jitter of { a : int; b : int; max_delay : float }
  | Clear of { a : int; b : int }
  | Clock_skew of { switch : int; skew : float }

type timed = { time : float; event : event }
type t = { events : timed list }

let empty = { events = [] }
let is_empty t = t.events = []

let sort events = List.stable_sort (fun a b -> compare a.time b.time) events

let check_prob what p =
  if (not (Float.is_finite p)) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Adversary_plan: %s probability %g" what p)

let check_nonneg what x =
  if (not (Float.is_finite x)) || x < 0. then
    invalid_arg (Printf.sprintf "Adversary_plan: %s %g" what x)

let validate = function
  | Reorder { p; hold; _ } ->
      check_prob "reorder" p;
      check_nonneg "reorder hold" hold
  | Duplicate { p; _ } -> check_prob "duplicate" p
  | Corrupt { p; _ } -> check_prob "corrupt" p
  | Jitter { max_delay; _ } -> check_nonneg "jitter max_delay" max_delay
  | Clear _ -> ()
  | Clock_skew { skew; _ } ->
      if not (Float.is_finite skew) then
        invalid_arg "Adversary_plan: non-finite clock skew"

let of_events l =
  List.iter
    (fun (time, event) ->
      if time < 0. || Float.is_nan time then
        invalid_arg "Adversary_plan.of_events: negative event time";
      validate event)
    l;
  { events = sort (List.map (fun (time, event) -> { time; event }) l) }

let events t = List.map (fun e -> (e.time, e.event)) t.events
let merge a b = { events = sort (a.events @ b.events) }
let length t = List.length t.events

let pp_event ppf = function
  | Reorder { a; b; p; hold } ->
      Format.fprintf ppf "reorder %d<->%d p=%g hold=%gs" a b p hold
  | Duplicate { a; b; p } -> Format.fprintf ppf "duplicate %d<->%d p=%g" a b p
  | Corrupt { a; b; p } -> Format.fprintf ppf "corrupt %d<->%d p=%g" a b p
  | Jitter { a; b; max_delay } ->
      Format.fprintf ppf "jitter %d<->%d max=%gs" a b max_delay
  | Clear { a; b } -> Format.fprintf ppf "clear %d<->%d" a b
  | Clock_skew { switch; skew } ->
      Format.fprintf ppf "clock-skew switch=%d skew=%gs" switch skew

(* ------------------------------------------------------------------ *)
(* JSON codec, mirroring Fault_plan: one object per event, floats in
   exact round-trip form. *)

let event_fields = function
  | Reorder { a; b; p; hold } ->
      Printf.sprintf "\"ev\":\"reorder\",\"a\":%d,\"b\":%d,\"p\":%s,\"hold\":%s"
        a b (Json.j_float p) (Json.j_float hold)
  | Duplicate { a; b; p } ->
      Printf.sprintf "\"ev\":\"duplicate\",\"a\":%d,\"b\":%d,\"p\":%s" a b
        (Json.j_float p)
  | Corrupt { a; b; p } ->
      Printf.sprintf "\"ev\":\"corrupt\",\"a\":%d,\"b\":%d,\"p\":%s" a b
        (Json.j_float p)
  | Jitter { a; b; max_delay } ->
      Printf.sprintf "\"ev\":\"jitter\",\"a\":%d,\"b\":%d,\"max_delay\":%s" a b
        (Json.j_float max_delay)
  | Clear { a; b } -> Printf.sprintf "\"ev\":\"clear\",\"a\":%d,\"b\":%d" a b
  | Clock_skew { switch; skew } ->
      Printf.sprintf "\"ev\":\"clock-skew\",\"switch\":%d,\"skew\":%s" switch
        (Json.j_float skew)

let to_json t =
  let item { time; event } =
    Printf.sprintf "{\"t\":%s,%s}" (Json.j_float time) (event_fields event)
  in
  "[" ^ String.concat "," (List.map item t.events) ^ "]"

let event_of_fields fields =
  let int k = Json.int fields k in
  let flt k = Json.float fields k in
  match Json.str fields "ev" with
  | "reorder" ->
      Reorder { a = int "a"; b = int "b"; p = flt "p"; hold = flt "hold" }
  | "duplicate" -> Duplicate { a = int "a"; b = int "b"; p = flt "p" }
  | "corrupt" -> Corrupt { a = int "a"; b = int "b"; p = flt "p" }
  | "jitter" ->
      Jitter { a = int "a"; b = int "b"; max_delay = flt "max_delay" }
  | "clear" -> Clear { a = int "a"; b = int "b" }
  | "clock-skew" -> Clock_skew { switch = int "switch"; skew = flt "skew" }
  | other -> raise (Json.Parse_error ("unknown adversary event " ^ other))

let of_json_value v =
  match
    of_events
      (List.map
         (fun item ->
           let fields = Json.obj item in
           (Json.float fields "t", event_of_fields fields))
         (Json.arr v))
  with
  | t -> Ok t
  | exception Json.Parse_error msg -> Error ("adversary plan: " ^ msg)
  | exception Invalid_argument msg -> Error msg

let of_json s =
  match Json.parse s with
  | v -> of_json_value v
  | exception Json.Parse_error msg -> Error ("adversary plan: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Generators. All randomness flows from the caller's rng in a fixed
   order, mirroring the Fault_plan discipline. *)

(* Standing conditions from t=0 on every given cable — the experiment
   sweeps' workhorse (one knob per condition, no timing dimension). *)
let degrade ~links ?reorder ?duplicate ?corrupt ?jitter () =
  let per_link (a, b) =
    List.concat
      [
        (match reorder with
        | Some (p, hold) when p > 0. -> [ (0., Reorder { a; b; p; hold }) ]
        | _ -> []);
        (match duplicate with
        | Some p when p > 0. -> [ (0., Duplicate { a; b; p }) ]
        | _ -> []);
        (match corrupt with
        | Some p when p > 0. -> [ (0., Corrupt { a; b; p }) ]
        | _ -> []);
        (match jitter with
        | Some m when m > 0. -> [ (0., Jitter { a; b; max_delay = m }) ]
        | _ -> []);
      ]
  in
  of_events (List.concat_map per_link links)

(* Random plan for the fuzzer: [count] events drawn over the given
   targets within [0, until), each event type and its parameters
   uniform within bounded "plausible adversary" ranges scaled by
   [intensity] in (0, 1]. Cables and switches are indexed in list
   order, so the same rng stream and targets expand identically. *)
let random rng ~cables ~switches ~until ~intensity ~count =
  if cables = [] then invalid_arg "Adversary_plan.random: no cables";
  if count < 0 then invalid_arg "Adversary_plan.random: negative count";
  let intensity = Float.min 1. (Float.max 0.01 intensity) in
  let cables = Array.of_list cables in
  let switches = Array.of_list switches in
  let cable () = cables.(Rng.int rng (Array.length cables)) in
  let prob () = intensity *. Rng.float rng in
  let ev () =
    let kinds = if Array.length switches = 0 then 5 else 6 in
    match Rng.int rng kinds with
    | 0 ->
        let a, b = cable () in
        Reorder { a; b; p = prob (); hold = Rng.uniform rng 1e-4 2e-3 }
    | 1 ->
        let a, b = cable () in
        Duplicate { a; b; p = prob () }
    | 2 ->
        let a, b = cable () in
        Corrupt { a; b; p = prob () }
    | 3 ->
        let a, b = cable () in
        Jitter { a; b; max_delay = intensity *. Rng.uniform rng 1e-5 1e-3 }
    | 4 ->
        let a, b = cable () in
        Clear { a; b }
    | _ ->
        (* |skew| stays under the invariant monitor's 2 ms Early
           Termination grace (Invariants.create rtt_slack): a skewed
           switch may kill a deadline flow up to |skew| early, which
           must read as clock error, not as an allocator bug. *)
        Clock_skew
          {
            switch = switches.(Rng.int rng (Array.length switches));
            skew = intensity *. Rng.uniform rng (-1e-3) 1e-3;
          }
  in
  of_events
    (List.init count (fun _ ->
         let time = Rng.uniform rng 0. until in
         let event = ev () in
         (time, event)))
