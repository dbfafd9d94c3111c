module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Json = Pdq_telemetry.Json

let k_clear = Sim.Kind.register "fault.clear"
let k_apply = Sim.Kind.register "fault.apply"

type event =
  | Link_down of { a : int; b : int }
  | Link_up of { a : int; b : int }
  | Loss_burst of { a : int; b : int; loss : float; duration : float }
  | Gilbert_loss of { a : int; b : int; ge : Link.gilbert_elliott }
  | Clear_loss of { a : int; b : int }
  | Switch_reboot of int

type timed = { time : float; event : event }
type t = { events : timed list }

let empty = { events = [] }
let is_empty t = t.events = []

let sort events =
  List.stable_sort (fun a b -> compare a.time b.time) events

let of_events l =
  List.iter
    (fun (time, _) ->
      if time < 0. || Float.is_nan time then
        invalid_arg "Fault_plan.of_events: negative event time")
    l;
  { events = sort (List.map (fun (time, event) -> { time; event }) l) }

let events t = List.map (fun e -> (e.time, e.event)) t.events
let merge a b = { events = sort (a.events @ b.events) }
let length t = List.length t.events

let pp_event ppf = function
  | Link_down { a; b } -> Format.fprintf ppf "link-down %d<->%d" a b
  | Link_up { a; b } -> Format.fprintf ppf "link-up %d<->%d" a b
  | Loss_burst { a; b; loss; duration } ->
      Format.fprintf ppf "loss-burst %d<->%d p=%g for %gs" a b loss duration
  | Gilbert_loss { a; b; _ } -> Format.fprintf ppf "gilbert-loss %d<->%d" a b
  | Clear_loss { a; b } -> Format.fprintf ppf "clear-loss %d<->%d" a b
  | Switch_reboot n -> Format.fprintf ppf "switch-reboot %d" n

(* ------------------------------------------------------------------ *)
(* JSON codec: one object per event, exact float round-trip via
   [Json.j_float], so [of_json (to_json t)] rebuilds the plan bit
   for bit. The chaos fuzzer leans on this to emit replayable
   reproducers. *)

let event_fields = function
  | Link_down { a; b } -> Printf.sprintf "\"ev\":\"link-down\",\"a\":%d,\"b\":%d" a b
  | Link_up { a; b } -> Printf.sprintf "\"ev\":\"link-up\",\"a\":%d,\"b\":%d" a b
  | Loss_burst { a; b; loss; duration } ->
      Printf.sprintf
        "\"ev\":\"loss-burst\",\"a\":%d,\"b\":%d,\"loss\":%s,\"duration\":%s" a b
        (Json.j_float loss)
        (Json.j_float duration)
  | Gilbert_loss { a; b; ge } ->
      Printf.sprintf
        "\"ev\":\"gilbert-loss\",\"a\":%d,\"b\":%d,\"p_gb\":%s,\"p_bg\":%s,\
         \"loss_good\":%s,\"loss_bad\":%s"
        a b
        (Json.j_float ge.Link.p_gb)
        (Json.j_float ge.Link.p_bg)
        (Json.j_float ge.Link.loss_good)
        (Json.j_float ge.Link.loss_bad)
  | Clear_loss { a; b } ->
      Printf.sprintf "\"ev\":\"clear-loss\",\"a\":%d,\"b\":%d" a b
  | Switch_reboot n -> Printf.sprintf "\"ev\":\"switch-reboot\",\"switch\":%d" n

let to_json t =
  let item { time; event } =
    Printf.sprintf "{\"t\":%s,%s}" (Json.j_float time) (event_fields event)
  in
  "[" ^ String.concat "," (List.map item t.events) ^ "]"

let event_of_fields fields =
  let int k = Json.int fields k in
  let flt k = Json.float fields k in
  match Json.str fields "ev" with
  | "link-down" -> Link_down { a = int "a"; b = int "b" }
  | "link-up" -> Link_up { a = int "a"; b = int "b" }
  | "loss-burst" ->
      Loss_burst
        { a = int "a"; b = int "b"; loss = flt "loss"; duration = flt "duration" }
  | "gilbert-loss" ->
      Gilbert_loss
        {
          a = int "a";
          b = int "b";
          ge =
            {
              Link.p_gb = flt "p_gb";
              p_bg = flt "p_bg";
              loss_good = flt "loss_good";
              loss_bad = flt "loss_bad";
            };
        }
  | "clear-loss" -> Clear_loss { a = int "a"; b = int "b" }
  | "switch-reboot" -> Switch_reboot (int "switch")
  | other -> raise (Json.Parse_error ("unknown fault event " ^ other))

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
  | exception Json.Parse_error msg -> Error ("fault plan: " ^ msg)
  | exception Invalid_argument msg -> Error msg

let of_json s =
  match Json.parse s with
  | v -> of_json_value v
  | exception Json.Parse_error msg -> Error ("fault plan: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Topology fault targets: generators take explicit node lists, these
   enumerate the usual ones. *)

let switch_cables topo =
  let hosts = Topology.hosts topo in
  let is_host n = Array.exists (( = ) n) hosts in
  let seen = Hashtbl.create 64 in
  let cables = ref [] in
  for i = 0 to Topology.link_count topo - 1 do
    let l = Topology.link topo i in
    let a = min (Link.src l) (Link.dst l)
    and b = max (Link.src l) (Link.dst l) in
    if (not (Hashtbl.mem seen (a, b))) && (not (is_host a)) && not (is_host b)
    then begin
      Hashtbl.add seen (a, b) ();
      cables := (a, b) :: !cables
    end
  done;
  List.rev !cables

let switches topo =
  let hosts = Topology.hosts topo in
  let is_host n = Array.exists (( = ) n) hosts in
  List.filter
    (fun n -> not (is_host n))
    (List.init (Topology.node_count topo) Fun.id)

(* ------------------------------------------------------------------ *)
(* Deterministic generators: all randomness flows from the caller's
   rng, consumed in a fixed order (per target, in list order), so the
   same seed and parameters always expand to the same event trace. *)

let flap ~a ~b ~down_at ~up_at =
  if up_at < down_at then invalid_arg "Fault_plan.flap: up before down";
  of_events [ (down_at, Link_down { a; b }); (up_at, Link_up { a; b }) ]

let link_flaps rng ~links ~mtbf ~mttr ~until =
  if mtbf <= 0. || mttr <= 0. then
    invalid_arg "Fault_plan.link_flaps: nonpositive mtbf/mttr";
  let per_link (a, b) =
    let rng = Rng.split rng in
    let acc = ref [] in
    let t = ref (Rng.exponential rng ~mean:mtbf) in
    let continue = ref true in
    while !continue do
      if !t >= until then continue := false
      else begin
        let down = !t in
        let up = down +. Rng.exponential rng ~mean:mttr in
        acc := { time = down; event = Link_down { a; b } } :: !acc;
        acc := { time = up; event = Link_up { a; b } } :: !acc;
        t := up +. Rng.exponential rng ~mean:mtbf
      end
    done;
    List.rev !acc
  in
  { events = sort (List.concat_map per_link links) }

let loss_bursts rng ~links ~mean_interval ~mean_duration ~loss ~until =
  if mean_interval <= 0. || mean_duration <= 0. then
    invalid_arg "Fault_plan.loss_bursts: nonpositive interval/duration";
  let per_link (a, b) =
    let rng = Rng.split rng in
    let acc = ref [] in
    let t = ref (Rng.exponential rng ~mean:mean_interval) in
    let continue = ref true in
    while !continue do
      if !t >= until then continue := false
      else begin
        let duration = Rng.exponential rng ~mean:mean_duration in
        acc := { time = !t; event = Loss_burst { a; b; loss; duration } } :: !acc;
        t := !t +. duration +. Rng.exponential rng ~mean:mean_interval
      end
    done;
    List.rev !acc
  in
  { events = sort (List.concat_map per_link links) }

let switch_reboots rng ~switches ~mtbf ~until =
  if mtbf <= 0. then invalid_arg "Fault_plan.switch_reboots: nonpositive mtbf";
  let per_switch n =
    let rng = Rng.split rng in
    let acc = ref [] in
    let t = ref (Rng.exponential rng ~mean:mtbf) in
    let continue = ref true in
    while !continue do
      if !t >= until then continue := false
      else begin
        acc := { time = !t; event = Switch_reboot n } :: !acc;
        t := !t +. Rng.exponential rng ~mean:mtbf
      end
    done;
    List.rev !acc
  in
  { events = sort (List.concat_map per_switch switches) }

(* ------------------------------------------------------------------ *)
(* Installation: turn the plan into scheduled simulator events acting
   on the live topology. *)

let null_trace ~time:_ _ = ()

let both_links topo ~a ~b =
  [ Topology.link_to topo ~src:a ~dst:b; Topology.link_to topo ~src:b ~dst:a ]

let install ~sim ~topo ~rng ?(trace = null_trace) ~on_change ~on_reboot t =
  (* Split per event eagerly, in plan order, so link-level loss draws
     are independent of execution interleaving. *)
  let prepared =
    List.map
      (fun { time; event } -> (time, event, Rng.split rng))
      t.events
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
    | Loss_burst { a; b; loss; duration } ->
        let links = both_links topo ~a ~b in
        let saved = List.map Link.loss_model links in
        List.iter
          (fun l -> Link.set_loss_model l (Link.Bernoulli loss) ~rng:(Rng.split ev_rng))
          links;
        ignore
          (Sim.schedule_k sim k_clear ~delay:duration (fun () ->
               List.iter2
                 (fun l m -> Link.set_loss_model l m ~rng:(Rng.split ev_rng))
                 links saved))
    | Gilbert_loss { a; b; ge } ->
        List.iter
          (fun l -> Link.set_loss_model l (Link.Gilbert ge) ~rng:(Rng.split ev_rng))
          (both_links topo ~a ~b)
    | Clear_loss { a; b } ->
        List.iter
          (fun l -> Link.set_loss_model l Link.No_loss ~rng:(Rng.split ev_rng))
          (both_links topo ~a ~b)
    | Switch_reboot n -> on_reboot n
  in
  List.iter
    (fun (time, event, ev_rng) ->
      if time <= Sim.now sim then apply time event ev_rng
      else
        ignore
          (Sim.schedule_at_k sim k_apply ~time (fun () ->
               apply time event ev_rng)))
    prepared
