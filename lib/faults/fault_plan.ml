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
  | Set_loss of { a : int; b : int; model : Link.loss_model }
  | Switch_reboot of int

let pp_event ppf = function
  | Link_down { a; b } -> Format.fprintf ppf "link-down %d<->%d" a b
  | Link_up { a; b } -> Format.fprintf ppf "link-up %d<->%d" a b
  | Loss_burst { a; b; loss; duration } ->
      Format.fprintf ppf "loss-burst %d<->%d p=%g for %gs" a b loss duration
  | Set_loss { a; b; model = Link.Bernoulli p } ->
      Format.fprintf ppf "loss %d<->%d p=%g" a b p
  | Set_loss { a; b; model = Link.Gilbert _ } ->
      Format.fprintf ppf "gilbert-loss %d<->%d" a b
  | Set_loss { a; b; model = Link.No_loss } ->
      Format.fprintf ppf "clear-loss %d<->%d" a b
  | Switch_reboot n -> Format.fprintf ppf "switch-reboot %d" n

let check_prob = Timed_plan.check_prob "Fault_plan"
let check_nonneg = Timed_plan.check_nonneg "Fault_plan"

let validate = function
  | Loss_burst { loss; duration; _ } ->
      check_prob "loss-burst" loss;
      check_nonneg "loss-burst duration" duration
  | Set_loss { model = Link.Bernoulli p; _ } -> check_prob "loss" p
  | Set_loss { model = Link.Gilbert ge; _ } ->
      check_prob "gilbert p_gb" ge.Link.p_gb;
      check_prob "gilbert p_bg" ge.Link.p_bg;
      check_prob "gilbert loss_good" ge.Link.loss_good;
      check_prob "gilbert loss_bad" ge.Link.loss_bad
  | Set_loss { model = Link.No_loss; _ }
  | Link_down _ | Link_up _ | Switch_reboot _ ->
      ()

let cable = function
  | Link_down { a; b } | Link_up { a; b } | Loss_burst { a; b; _ }
  | Set_loss { a; b; _ } ->
      Some (a, b)
  | Switch_reboot _ -> None

let to_fields = function
  | Link_down { a; b } -> Printf.sprintf "\"ev\":\"link-down\",\"a\":%d,\"b\":%d" a b
  | Link_up { a; b } -> Printf.sprintf "\"ev\":\"link-up\",\"a\":%d,\"b\":%d" a b
  | Loss_burst { a; b; loss; duration } ->
      Printf.sprintf
        "\"ev\":\"loss-burst\",\"a\":%d,\"b\":%d,\"loss\":%s,\"duration\":%s" a b
        (Json.j_float loss)
        (Json.j_float duration)
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

let of_fields fields =
  let int k = Json.int fields k in
  let flt k = Json.float fields k in
  match Json.str fields "ev" with
  | "link-down" -> Link_down { a = int "a"; b = int "b" }
  | "link-up" -> Link_up { a = int "a"; b = int "b" }
  | "loss-burst" ->
      Loss_burst
        { a = int "a"; b = int "b"; loss = flt "loss"; duration = flt "duration" }
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
  | other -> raise (Json.Parse_error ("unknown fault event " ^ other))

include (
  Timed_plan.Make (struct
    type nonrec event = event

    let name = "Fault_plan"
    let validate = validate
    let cable = cable
    let to_fields = to_fields
    let of_fields = of_fields
  end) :
    Timed_plan.S with type event := event)

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

(* ------------------------------------------------------------------ *)
(* Installation: turn the plan into scheduled simulator events acting
   on the live topology. *)

let null_trace ~time:_ _ = ()

let install ~sim ~topo ~rng ?(trace = null_trace) ~on_change ~on_reboot t =
  check_cables topo t;
  (* Split per event eagerly, in plan order, so link-level loss draws
     are independent of execution interleaving. *)
  let prepared =
    List.map (fun (time, event) -> (time, event, Rng.split rng)) (events t)
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
        let links = Topology.cable topo ~a ~b in
        let saved = List.map Link.loss_model links in
        List.iter
          (fun l -> Link.set_loss_model l (Link.Bernoulli loss) ~rng:(Rng.split ev_rng))
          links;
        ignore
          (Sim.schedule_k sim k_clear ~delay:duration (fun () ->
               List.iter2
                 (fun l m -> Link.set_loss_model l m ~rng:(Rng.split ev_rng))
                 links saved))
    | Set_loss { a; b; model } ->
        List.iter
          (fun l -> Link.set_loss_model l model ~rng:(Rng.split ev_rng))
          (Topology.cable topo ~a ~b)
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
