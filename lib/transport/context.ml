module Sim = Pdq_engine.Sim
module Trace = Pdq_telemetry.Trace
module Packet = Pdq_net.Packet
module Topology = Pdq_net.Topology
module Router = Pdq_net.Router
module Link = Pdq_net.Link
module Int_table = Pdq_engine.Int_table

type flow_spec = {
  src : int;
  dst : int;
  size : int;
  deadline : float option;
  start : float;
}

type flow = {
  id : int;
  spec : flow_spec;
  deadline_abs : float option;
  mutable completed_at : float option;
  mutable terminated : bool;
  mutable aborted : bool;
}

(* How a pinned route was obtained: ECMP routes can be recomputed when
   the topology degrades; explicitly pinned node paths (source routing)
   cannot and are left alone. *)
type route_origin = Ecmp of { src : int; dst : int; choice : int } | Pinned

(* A pinned route with its links resolved once: [up.(i)] is the link
   [nodes.(i) -> nodes.(i + 1)] and [down.(i)] the link back, so the
   per-hop path indexes arrays instead of searching adjacency lists. *)
type route = { nodes : int array; up : Link.t array; down : Link.t array }

type hooks = {
  mutable on_forward : link:int -> Packet.t -> unit;
  mutable on_reverse : fwd_link:int -> Packet.t -> unit;
  mutable deliver : node:int -> Packet.t -> unit;
}

type t = {
  sim : Sim.t;
  topo : Topology.t;
  router : Router.t;
  rng : Pdq_engine.Rng.t;
  trace : Trace.t;
  mutable flows_rev : flow list;
  mutable flow_count : int;
  mutable next_subflow_id : int;
  routes : route Int_table.t;
  route_origins : route_origin Int_table.t;
  hooks : hooks;
  mutable reboot_hooks : (int -> unit) list;
  tally : Pdq_engine.Stats.Tally.t;
  mutable open_flows : int;
  mutable all_complete_cb : (unit -> unit) option;
  mutable abort_observer : (cause:string -> unit) option;
}

(* Subflow ids live far above experiment flow ids so route-table keys
   never collide. *)
let subflow_id_base = 1_000_000

let create ?(trace = Trace.null) ~sim ~topo ~rng () =
  {
    sim;
    topo;
    router = Router.create topo;
    rng;
    trace;
    flows_rev = [];
    flow_count = 0;
    next_subflow_id = subflow_id_base;
    routes = Int_table.create 32;
    route_origins = Int_table.create 32;
    reboot_hooks = [];
    tally = Pdq_engine.Stats.Tally.create ();
    hooks =
      {
        on_forward = (fun ~link:_ _ -> ());
        on_reverse = (fun ~fwd_link:_ _ -> ());
        deliver = (fun ~node:_ _ -> ());
      };
    open_flows = 0;
    all_complete_cb = None;
    abort_observer = None;
  }

let sim t = t.sim
let topo t = t.topo
let rng t = t.rng
let init_rtt = 2e-4
let now t = Sim.now t.sim

let tally t = t.tally
let trace t = t.trace

(* Fault keys ("fault.*") become [Fault] events; "drop.*" keys are
   tallied only — their drop sites emit typed [Packet_dropped] events
   themselves. *)
let fault_key key =
  String.length key >= 6 && String.sub key 0 6 = "fault."

let record_fault t key =
  Pdq_engine.Stats.Tally.incr t.tally key;
  if Trace.active t.trace && fault_key key then
    Trace.emit t.trace (Trace.Fault { desc = key })

(* The route over directed link ids [links]; its nodes are each link's
   source and the last link's destination. *)
let resolve topo links =
  let up = Array.map (Topology.link topo) links in
  let hops = Array.length up in
  {
    nodes =
      Array.init
        (if hops = 0 then 0 else hops + 1)
        (fun i -> if i < hops then Link.src up.(i) else Link.dst up.(hops - 1));
    up;
    down = Array.map (Topology.reverse topo) up;
  }

let register_route t ~id ~src ~dst ~choice =
  (* A flow admitted while its endpoints are partitioned gets an empty
     route: its packets drop at the source (stale-route path) and the
     watchdog aborts it. [reroute] fills in a real path if connectivity
     returns first. *)
  let links =
    match Router.path_links t.router ~src ~dst ~choice with
    | l -> l
    | exception Not_found ->
        record_fault t "fault.unroutable";
        [||]
  in
  Int_table.replace t.routes id (resolve t.topo links);
  Int_table.replace t.route_origins id (Ecmp { src; dst; choice })

let register_route_nodes t ~id path =
  if Array.length path < 2 then
    invalid_arg "Context.register_route_nodes: path too short";
  let hop i =
    match Topology.cable t.topo ~a:path.(i) ~b:path.(i + 1) with
    | links -> Link.id (List.hd links)
    | exception Invalid_argument _ ->
        invalid_arg
          "Context.register_route_nodes: consecutive nodes not adjacent"
  in
  Int_table.replace t.routes id
    (resolve t.topo (Array.init (Array.length path - 1) hop));
  Int_table.replace t.route_origins id Pinned

(* Topology changed (link failed or recovered): recompute every ECMP
   route on the live graph. A flow whose endpoints are partitioned
   keeps its stale route — its packets die at the down link and the
   sender's watchdog eventually aborts it — so degradation is graceful
   rather than an exception. Ids are visited in sorted order to keep
   runs deterministic. *)
let reroute t =
  Router.invalidate t.router;
  let ids =
    Int_table.fold
      (fun id origin acc ->
        match origin with Ecmp _ -> id :: acc | Pinned -> acc)
      t.route_origins []
    |> List.sort Int.compare
  in
  List.iter
    (fun id ->
      match Int_table.find t.route_origins id with
      | Pinned -> ()
      | Ecmp { src; dst; choice } -> (
          match Router.path_links t.router ~src ~dst ~choice with
          | links -> Int_table.replace t.routes id (resolve t.topo links)
          | exception Not_found -> record_fault t "fault.unroutable"))
    ids

let run_switch_ports t ports ~kind ~until ~flush ~tick =
  t.reboot_hooks <-
    t.reboot_hooks
    @ [
        (fun node ->
          Array.iteri
            (fun i p -> if Link.src (Topology.link t.topo i) = node then flush p)
            ports);
      ];
  Array.iteri
    (fun i p ->
      let link = Topology.link t.topo i in
      let rec loop () =
        let now = Sim.now t.sim in
        if now <= until then
          ignore (Sim.schedule_k t.sim kind ~delay:(tick p ~link ~now) loop)
      in
      ignore (Sim.schedule_k t.sim kind ~delay:0. loop))
    ports

let reboot_switch t ~node =
  record_fault t "fault.switch_reboot";
  List.iter (fun f -> f node) t.reboot_hooks

let add_flow t spec =
  if spec.src = spec.dst then
    invalid_arg
      (Printf.sprintf "Context.add_flow: flow from node %d to itself" spec.src);
  let id = t.flow_count in
  t.flow_count <- t.flow_count + 1;
  let flow =
    {
      id;
      spec;
      deadline_abs = Option.map (fun d -> spec.start +. d) spec.deadline;
      completed_at = None;
      terminated = false;
      aborted = false;
    }
  in
  t.flows_rev <- flow :: t.flows_rev;
  t.open_flows <- t.open_flows + 1;
  register_route t ~id ~src:spec.src ~dst:spec.dst ~choice:id;
  if Trace.active t.trace then
    Trace.emit t.trace
      (Trace.Flow_admitted
         {
           flow = id;
           src = spec.src;
           dst = spec.dst;
           size = spec.size;
           deadline = flow.deadline_abs;
         });
  flow

let flows t = List.rev t.flows_rev

let fresh_subflow_id t =
  let id = t.next_subflow_id in
  t.next_subflow_id <- id + 1;
  id

let find_route t id =
  match Int_table.find t.routes id with
  | r -> r
  | exception Not_found ->
      failwith (Printf.sprintf "Context.route: unknown flow %d" id)

let route t id = Array.map Link.id (find_route t id).up

let is_forward_kind = function
  | Packet.Syn | Packet.Data | Packet.Probe | Packet.Term -> true
  | Packet.Syn_ack | Packet.Ack -> false

(* Index of [node] in [nodes] from [i] on, or -1. *)
let rec position (nodes : int array) node i =
  if i >= Array.length nodes then -1
  else if nodes.(i) = node then i
  else position nodes node (i + 1)

let stale_drop t =
  record_fault t "drop.stale_route";
  if Trace.active t.trace then
    Trace.emit t.trace
      (Trace.Packet_dropped { link = -1; cause = Trace.Stale_route })

let transmit t ~from (pkt : Packet.t) =
  let r = find_route t pkt.Packet.flow in
  let i = position r.nodes from 0 in
  if i < 0 then
    (* The flow was re-pinned (link failure) while this packet was in
       flight on the old path: the node has no forwarding entry for it
       any more. Drop it — the sender's retransmission machinery
       recovers — and make the loss visible in the counters. *)
    stale_drop t
  else if is_forward_kind pkt.Packet.kind then begin
    let link = r.up.(i) in
    t.hooks.on_forward ~link:(Link.id link) pkt;
    Link.send link pkt
  end
  else if i = 0 then
    (* A reverse packet stranded at the (new) route's head that is not
       the flow source: same stale-route drop. *)
    stale_drop t
  else begin
    (* Reverse packets run Algorithm-3-style processing against the
       forward-direction port at this node before heading back. *)
    if i < Array.length r.up then
      t.hooks.on_reverse ~fwd_link:(Link.id r.up.(i)) pkt;
    Link.send r.down.(i - 1) pkt
  end

let set_hooks t ~on_forward ~on_reverse ~deliver =
  t.hooks.on_forward <- on_forward;
  t.hooks.on_reverse <- on_reverse;
  t.hooks.deliver <- deliver;
  for node = 0 to Topology.node_count t.topo - 1 do
    Topology.set_handler t.topo node (fun pkt ->
        if pkt.Packet.dst <> node then transmit t ~from:node pkt
        else begin
          (* A reverse packet arriving at the flow source still needs
             processing against the source NIC's forward port. *)
          (if not (is_forward_kind pkt.Packet.kind) then begin
             let r = find_route t pkt.Packet.flow in
             if Array.length r.nodes > 1 && r.nodes.(0) = node then
               t.hooks.on_reverse ~fwd_link:(Link.id r.up.(0)) pkt
           end);
          t.hooks.deliver ~node pkt
        end)
  done

let maybe_fire_all_complete t =
  if t.open_flows = 0 then
    match t.all_complete_cb with
    | Some f ->
        t.all_complete_cb <- None;
        f ()
    | None -> ()

let complete t flow =
  if flow.completed_at = None then begin
    flow.completed_at <- Some (now t);
    if Trace.active t.trace then
      Trace.emit t.trace
        (Trace.Flow_completed
           { flow = flow.id; fct = now t -. flow.spec.start });
    (* A terminated/aborted flow was already counted closed even if its
       last in-flight packets still complete the transfer. *)
    if not (flow.terminated || flow.aborted) then begin
      t.open_flows <- t.open_flows - 1;
      maybe_fire_all_complete t
    end
  end

let flow_closed t flow =
  if flow.completed_at = None && flow.terminated then begin
    if Trace.active t.trace then
      Trace.emit t.trace (Trace.Flow_terminated { flow = flow.id });
    t.open_flows <- t.open_flows - 1;
    maybe_fire_all_complete t
  end

(* Terminal watchdog outcome: the sender gave up after bounded retries
   (dead path, endless loss). Distinct from Early Termination, which is
   a deliberate scheduling decision; aborts are per-cause tallied so
   resilience runs can report why flows died. *)
let abort t flow ~cause =
  if flow.completed_at = None && (not flow.terminated) && not flow.aborted
  then begin
    flow.aborted <- true;
    Pdq_engine.Stats.Tally.incr t.tally ("abort." ^ cause);
    (match t.abort_observer with Some f -> f ~cause | None -> ());
    if Trace.active t.trace then
      Trace.emit t.trace (Trace.Flow_aborted { flow = flow.id; cause });
    t.open_flows <- t.open_flows - 1;
    maybe_fire_all_complete t
  end

let on_abort t f = t.abort_observer <- Some f

let on_all_complete t f = t.all_complete_cb <- Some f

let record_rx t ~flow_id ~bytes =
  if Trace.active t.trace then
    Trace.emit t.trace (Trace.Flow_rx { flow = flow_id; bytes })
