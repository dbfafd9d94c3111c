module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Json = Pdq_telemetry.Json

let k_apply = Sim.Kind.register "fault.apply"

type event =
  | Link_down of { a : int; b : int }
  | Link_up of { a : int; b : int }
  | Set_loss of { a : int; b : int; model : Link.loss_model }
  | Switch_reboot of int
  | Reorder of { a : int; b : int; p : float; hold : float }
  | Duplicate of { a : int; b : int; p : float }
  | Corrupt of { a : int; b : int; p : float }
  | Jitter of { a : int; b : int; max_delay : float }
  | Clear of { a : int; b : int }
  | Clock_skew of { switch : int; skew : float }

let is_adversarial = function
  | Link_down _ | Link_up _ | Set_loss _ | Switch_reboot _ -> false
  | Reorder _ | Duplicate _ | Corrupt _ | Jitter _ | Clear _ | Clock_skew _ ->
      true

let pp_event ppf = function
  | Link_down { a; b } -> Format.fprintf ppf "link-down %d<->%d" a b
  | Link_up { a; b } -> Format.fprintf ppf "link-up %d<->%d" a b
  | Set_loss { a; b; model = Link.Bernoulli p } ->
      Format.fprintf ppf "loss %d<->%d p=%g" a b p
  | Set_loss { a; b; model = Link.Gilbert _ } ->
      Format.fprintf ppf "gilbert-loss %d<->%d" a b
  | Set_loss { a; b; model = Link.No_loss } ->
      Format.fprintf ppf "clear-loss %d<->%d" a b
  | Switch_reboot n -> Format.fprintf ppf "switch-reboot %d" n
  | Reorder { a; b; p; hold } ->
      Format.fprintf ppf "reorder %d<->%d p=%g hold=%gs" a b p hold
  | Duplicate { a; b; p } -> Format.fprintf ppf "duplicate %d<->%d p=%g" a b p
  | Corrupt { a; b; p } -> Format.fprintf ppf "corrupt %d<->%d p=%g" a b p
  | Jitter { a; b; max_delay } ->
      Format.fprintf ppf "jitter %d<->%d max=%gs" a b max_delay
  | Clear { a; b } -> Format.fprintf ppf "clear %d<->%d" a b
  | Clock_skew { switch; skew } ->
      Format.fprintf ppf "clock-skew switch=%d skew=%gs" switch skew

let check_prob what p =
  if (not (Float.is_finite p)) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Fault_plan: %s probability %g" what p)

let check_nonneg what x =
  if (not (Float.is_finite x)) || x < 0. then
    invalid_arg (Printf.sprintf "Fault_plan: %s %g" what x)

let validate = function
  | Set_loss { model = Link.Bernoulli p; _ } -> check_prob "loss" p
  | Set_loss { model = Link.Gilbert ge; _ } ->
      check_prob "gilbert p_gb" ge.Link.p_gb;
      check_prob "gilbert p_bg" ge.Link.p_bg;
      check_prob "gilbert loss_good" ge.Link.loss_good;
      check_prob "gilbert loss_bad" ge.Link.loss_bad
  | Reorder { p; hold; _ } ->
      check_prob "reorder" p;
      check_nonneg "reorder hold" hold
  | Duplicate { p; _ } -> check_prob "duplicate" p
  | Corrupt { p; _ } -> check_prob "corrupt" p
  | Jitter { max_delay; _ } -> check_nonneg "jitter max_delay" max_delay
  | Clock_skew { skew; _ } ->
      if not (Float.is_finite skew) then
        invalid_arg "Fault_plan: non-finite clock skew"
  | Set_loss { model = Link.No_loss; _ }
  | Link_down _ | Link_up _ | Switch_reboot _ | Clear _ ->
      ()

let cable = function
  | Link_down { a; b }
  | Link_up { a; b }
  | Set_loss { a; b; _ }
  | Reorder { a; b; _ }
  | Duplicate { a; b; _ }
  | Corrupt { a; b; _ }
  | Jitter { a; b; _ }
  | Clear { a; b } ->
      Some (a, b)
  | Switch_reboot _ | Clock_skew _ -> None

(* ------------------------------------------------------------------ *)
(* The plan: a list sorted stably by time. *)

type t = (float * event) list

let empty = []
let is_empty t = t = []
let sort l = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) l

let of_events l =
  List.iter
    (fun (time, event) ->
      if time < 0. then invalid_arg "Fault_plan.of_events: negative event time";
      if not (Float.is_finite time) then
        invalid_arg "Fault_plan.of_events: non-finite event time";
      validate event)
    l;
  sort l

let events t = t
let merge a b = sort (a @ b)
let length = List.length

let check_cables topo t =
  List.iter
    (fun (_, event) ->
      Option.iter
        (fun (a, b) -> ignore (Topology.cable topo ~a ~b))
        (cable event))
    t

(* ------------------------------------------------------------------ *)
(* JSON codec: one object per event, ["t"] then ["ev"] first.
   [Json.j_float] makes the round trip exact, which the chaos fuzzer's
   replayable reproducers rely on. *)

let to_fields = function
  | Link_down { a; b } -> Printf.sprintf "\"ev\":\"link-down\",\"a\":%d,\"b\":%d" a b
  | Link_up { a; b } -> Printf.sprintf "\"ev\":\"link-up\",\"a\":%d,\"b\":%d" a b
  | Set_loss { a; b; model = Link.Bernoulli p } ->
      Printf.sprintf "\"ev\":\"loss\",\"a\":%d,\"b\":%d,\"loss\":%s" a b
        (Json.j_float p)
  | Set_loss { a; b; model = Link.Gilbert ge } ->
      Printf.sprintf
        "\"ev\":\"gilbert-loss\",\"a\":%d,\"b\":%d,\"p_gb\":%s,\"p_bg\":%s,\
         \"loss_good\":%s,\"loss_bad\":%s"
        a b
        (Json.j_float ge.Link.p_gb)
        (Json.j_float ge.Link.p_bg)
        (Json.j_float ge.Link.loss_good)
        (Json.j_float ge.Link.loss_bad)
  | Set_loss { a; b; model = Link.No_loss } ->
      Printf.sprintf "\"ev\":\"clear-loss\",\"a\":%d,\"b\":%d" a b
  | Switch_reboot n -> Printf.sprintf "\"ev\":\"switch-reboot\",\"switch\":%d" n
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
  | "link-down" -> Link_down { a = int "a"; b = int "b" }
  | "link-up" -> Link_up { a = int "a"; b = int "b" }
  | "loss" ->
      Set_loss { a = int "a"; b = int "b"; model = Link.Bernoulli (flt "loss") }
  | "gilbert-loss" ->
      Set_loss
        {
          a = int "a";
          b = int "b";
          model =
            Link.Gilbert
              {
                Link.p_gb = flt "p_gb";
                p_bg = flt "p_bg";
                loss_good = flt "loss_good";
                loss_bad = flt "loss_bad";
              };
        }
  | "clear-loss" -> Set_loss { a = int "a"; b = int "b"; model = Link.No_loss }
  | "switch-reboot" -> Switch_reboot (int "switch")
  | "reorder" ->
      Reorder { a = int "a"; b = int "b"; p = flt "p"; hold = flt "hold" }
  | "duplicate" -> Duplicate { a = int "a"; b = int "b"; p = flt "p" }
  | "corrupt" -> Corrupt { a = int "a"; b = int "b"; p = flt "p" }
  | "jitter" ->
      Jitter { a = int "a"; b = int "b"; max_delay = flt "max_delay" }
  | "clear" -> Clear { a = int "a"; b = int "b" }
  | "clock-skew" -> Clock_skew { switch = int "switch"; skew = flt "skew" }
  | other -> raise (Json.Parse_error ("unknown fault event " ^ other))

let to_json t =
  let item (time, event) =
    Printf.sprintf "{\"t\":%s,%s}" (Json.j_float time) (to_fields event)
  in
  "[" ^ String.concat "," (List.map item t) ^ "]"

let of_json_value v =
  match
    of_events
      (List.map
         (fun item ->
           let fields = Json.obj item in
           (Json.float fields "t", of_fields fields))
         (Json.arr v))
  with
  | t -> Ok t
  | exception Json.Parse_error msg -> Error ("fault plan: " ^ msg)
  | exception Invalid_argument msg -> Error msg

let of_json s =
  match Json.parse s with
  | v -> of_json_value v
  | exception Json.Parse_error msg -> Error ("fault plan: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Topology fault targets: generators take explicit node lists, these
   enumerate the usual ones. *)

let is_switch topo n = Topology.kind topo n = Topology.Switch

let switch_cables topo =
  List.filter
    (fun (a, b) -> is_switch topo a && is_switch topo b)
    (Topology.cables topo)

let switches topo =
  List.filter (is_switch topo) (List.init (Topology.node_count topo) Fun.id)

(* ------------------------------------------------------------------ *)
(* Deterministic generators: all randomness flows from the caller's
   rng, consumed in a fixed order (per target, in list order), so the
   same seed and parameters always expand to the same event trace. *)

(* One renewal process per target, each on its own split of [rng]:
   draw an exponential gap (mean [mean_gap]), let [episode rng target
   start] draw and return the episode's events and its end time, and
   draw the next gap from there, until a gap lands at or past
   [until]. *)
let renewal rng ~targets ~mean_gap ~until episode =
  let per_target target =
    let rng = Rng.split rng in
    let rec go start acc =
      if start >= until then List.rev acc
      else
        let evs, stop = episode rng target start in
        let next = stop +. Rng.exponential rng ~mean:mean_gap in
        go next (List.rev_append evs acc)
    in
    go (Rng.exponential rng ~mean:mean_gap) []
  in
  of_events (List.concat_map per_target targets)

let link_flaps rng ~links ~mtbf ~mttr ~until =
  if mtbf <= 0. || mttr <= 0. then
    invalid_arg "Fault_plan.link_flaps: nonpositive mtbf/mttr";
  renewal rng ~targets:links ~mean_gap:mtbf ~until (fun rng (a, b) down ->
      let up = down +. Rng.exponential rng ~mean:mttr in
      ([ (down, Link_down { a; b }); (up, Link_up { a; b }) ], up))

let switch_reboots rng ~switches ~mtbf ~until =
  if mtbf <= 0. then invalid_arg "Fault_plan.switch_reboots: nonpositive mtbf";
  renewal rng ~targets:switches ~mean_gap:mtbf ~until (fun _ n start ->
      ([ (start, Switch_reboot n) ], start))

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

(* Random adversarial plan for the fuzzer: [count] events drawn over
   the given targets within [0, until), each event type and its
   parameters uniform within bounded "plausible adversary" ranges
   scaled by [intensity] in (0, 1]. Cables and switches are indexed in
   list order, so the same rng stream and targets expand
   identically. *)
let random rng ~cables ~switches ~until ~intensity ~count =
  if cables = [] then invalid_arg "Fault_plan.random: no cables";
  if count < 0 then invalid_arg "Fault_plan.random: negative count";
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

(* ------------------------------------------------------------------ *)
(* Installation: turn the plan's network events into scheduled
   simulator events acting on the live topology. *)

let null_trace ~time:_ _ = ()

let install ~sim ~topo ~rng ?(trace = null_trace) ~on_change ~on_reboot t =
  check_cables topo t;
  (* Split per network event eagerly, in plan order, so link-level
     loss draws are independent of execution interleaving. *)
  let prepared =
    List.filter_map
      (fun (time, event) ->
        if is_adversarial event then None
        else Some (time, event, Rng.split rng))
      t
  in
  let apply time event ev_rng =
    trace ~time event;
    match event with
    | Link_down { a; b } ->
        Topology.set_link_up topo ~a ~b false;
        on_change ()
    | Link_up { a; b } ->
        Topology.set_link_up topo ~a ~b true;
        on_change ()
    | Set_loss { a; b; model } ->
        List.iter
          (fun l -> Link.set_loss_model l model ~rng:(Rng.split ev_rng))
          (Topology.cable topo ~a ~b)
    | Switch_reboot n -> on_reboot n
    | Reorder _ | Duplicate _ | Corrupt _ | Jitter _ | Clear _ | Clock_skew _
      ->
        ()
  in
  List.iter
    (fun (time, event, ev_rng) ->
      if time <= Sim.now sim then apply time event ev_rng
      else
        ignore
          (Sim.schedule_at_k sim k_apply ~time (fun () ->
               apply time event ev_rng)))
    prepared
