module Rng = Pdq_engine.Rng
module Json = Pdq_telemetry.Json

type event =
  | Reorder of { a : int; b : int; p : float; hold : float }
  | Duplicate of { a : int; b : int; p : float }
  | Corrupt of { a : int; b : int; p : float }
  | Jitter of { a : int; b : int; max_delay : float }
  | Clear of { a : int; b : int }
  | Clock_skew of { switch : int; skew : float }

let check_prob = Pdq_faults.Timed_plan.check_prob "Adversary_plan"
let check_nonneg = Pdq_faults.Timed_plan.check_nonneg "Adversary_plan"

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

let cable = function
  | Reorder { a; b; _ }
  | Duplicate { a; b; _ }
  | Corrupt { a; b; _ }
  | Jitter { a; b; _ }
  | Clear { a; b } ->
      Some (a, b)
  | Clock_skew _ -> None

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
(* JSON fields of one event; the array codec is Timed_plan's. *)

let to_fields = function
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

let of_fields fields =
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

include (
  Pdq_faults.Timed_plan.Make (struct
    type nonrec event = event

    let name = "Adversary_plan"
    let validate = validate
    let cable = cable
    let to_fields = to_fields
    let of_fields = of_fields
  end) :
    Pdq_faults.Timed_plan.S with type event := event)

(* ------------------------------------------------------------------ *)
(* Generators. All randomness flows from the caller's rng in a fixed
   order, as in Fault_plan. *)

(* Standing conditions from t=0 on every given cable — the experiment
   sweeps' workhorse (one knob per condition, no timing dimension). *)
let degrade ~links ?reorder ?corrupt () =
  let per_link (a, b) =
    List.concat
      [
        (match reorder with
        | Some (p, hold) when p > 0. -> [ (0., Reorder { a; b; p; hold }) ]
        | _ -> []);
        (match corrupt with
        | Some p when p > 0. -> [ (0., Corrupt { a; b; p }) ]
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
        let hold = Rng.uniform rng 1e-4 2e-3 in
        let p = prob () in
        Reorder { a; b; p; hold }
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
           Termination grace ([rtt_slack] in invariants.ml): a skewed
           switch may kill a deadline flow up to |skew| early, which
           must read as clock error, not as an allocator bug. *)
        let skew = intensity *. Rng.uniform rng (-1e-3) 1e-3 in
        let switch = switches.(Rng.int rng (Array.length switches)) in
        Clock_skew { switch; skew }
  in
  of_events
    (List.init count (fun _ ->
         let time = Rng.uniform rng 0. until in
         let event = ev () in
         (time, event)))
