module Sim = Pdq_engine.Sim
module Units = Pdq_engine.Units

let k_rebalance = Sim.Kind.register "mpdq.rebalance"

type group = {
  flow : Context.flow;
  mutable streams : Pdq_proto.stream array;
  mutable total_rx : int;
  mutable closed : bool;
  nic_rate : float;
}

type t = {
  ctx : Context.t;
  pdq : Pdq_proto.t;
  subflows : int;
  paths : (src:int -> dst:int -> int array list) option;
}

let pdq t = t.pdq

(* The load-shift period: 4 initial RTT estimates. *)
let rebalance_period = 4. *. Context.init_rtt

let install ~config ~ctx ~until ~subflows ?paths () =
  if subflows < 1 then invalid_arg "Mpdq_proto.install: subflows < 1";
  { ctx; pdq = Pdq_proto.install ~config ~ctx ~until (); subflows; paths }

let group_terminate t g =
  if not g.closed then begin
    g.closed <- true;
    Array.iter
      (fun s ->
        if (not (Pdq_proto.stream_is_done s)) && not (Pdq_proto.stream_terminated s)
        then Pdq_proto.stream_terminate s)
      g.streams;
    g.flow.Context.terminated <- true;
    Context.flow_closed t.ctx g.flow
  end

let live s =
  (not (Pdq_proto.stream_is_done s)) && not (Pdq_proto.stream_terminated s)

(* Shift unsent load from paused subflows onto the sending subflow with
   the minimal remaining assignment (§6). The target is chosen before
   anything is shrunk so load can never be stranded. *)
let rebalance g =
  let target = ref None in
  Array.iter
    (fun s ->
      if live s && not (Pdq_proto.stream_is_paused s) then begin
        let rem = Pdq_proto.stream_remaining_unsent s in
        match !target with
        | None -> target := Some (s, rem)
        | Some (_, brem) -> if rem < brem then target := Some (s, rem)
      end)
    g.streams;
  match !target with
  | None -> () (* nobody is sending: leave assignments unchanged *)
  | Some (tgt, _) ->
      let moved = ref 0 in
      Array.iter
        (fun s ->
          if s != tgt && live s && Pdq_proto.stream_is_paused s then begin
            let m = Pdq_proto.stream_remaining_unsent s in
            if m > 0 then begin
              Pdq_proto.stream_resize s (Pdq_proto.stream_assigned s - m);
              moved := !moved + m
            end
          end)
        g.streams;
      if !moved > 0 then
        Pdq_proto.stream_resize tgt (Pdq_proto.stream_assigned tgt + !moved)

(* Flow-level Early Termination: subflows carry no deadline of their
   own; the coordinator kills the whole flow when the deadline passed
   or the remaining bytes cannot make it even at the NIC rate. *)
let group_infeasible g ~now =
  match g.flow.Context.deadline_abs with
  | None -> false
  | Some d ->
      let remaining =
        Units.bytes_to_bits (g.flow.Context.spec.Context.size - g.total_rx)
      in
      g.total_rx < g.flow.Context.spec.Context.size
      && (now > d || now +. (remaining /. g.nic_rate) > d)

let start_flow t (flow : Context.flow) =
  let spec = flow.Context.spec in
  let k = t.subflows in
  let base = spec.Context.size / k in
  let sizes =
    Array.init k (fun j -> if j = 0 then spec.Context.size - (base * (k - 1)) else base)
  in
  let nic_rate = Endpoint.nic_rate (Context.topo t.ctx) spec.Context.src in
  let g = { flow; streams = [||]; total_rx = 0; closed = false; nic_rate } in
  let explicit_paths =
    Option.map (fun f -> f ~src:spec.Context.src ~dst:spec.Context.dst) t.paths
  in
  g.streams <-
    Array.init k (fun j ->
        let sid = Context.fresh_subflow_id t.ctx in
        (match explicit_paths with
        | Some (_ :: _ as ps) ->
            (* Source-routed multipath (e.g. BCube address routing):
               stripe subflows round-robin over the parallel paths. *)
            Context.register_route_nodes t.ctx ~id:sid
              (List.nth ps (j mod List.length ps))
        | Some [] | None ->
            Context.register_route t.ctx ~id:sid ~src:spec.Context.src
              ~dst:spec.Context.dst
              ~choice:((flow.Context.id * 8191) + (j * 131) + j));
        Pdq_proto.start_stream ~rx_capacity:spec.Context.size t.pdq ~sid
          ~src:spec.Context.src ~dst:spec.Context.dst ~size:sizes.(j)
          ~deadline_abs:None (* ET is flow-level, handled below *)
          ~start:spec.Context.start
          ~on_rx:(fun ~bytes ->
            g.total_rx <- g.total_rx + bytes;
            if g.total_rx >= spec.Context.size then begin
              Context.complete t.ctx g.flow;
              g.closed <- true
            end)
          ~on_event:(fun () -> ()));
  let sim = Context.sim t.ctx in
  let rec loop () =
    if (not g.closed) && g.flow.Context.completed_at = None then begin
      if group_infeasible g ~now:(Sim.now sim) then group_terminate t g
      else begin
        rebalance g;
        ignore (Sim.schedule_k sim k_rebalance ~delay:rebalance_period loop)
      end
    end
  in
  ignore
    (Sim.schedule_at_k sim k_rebalance
       ~time:(max (Sim.now sim) (spec.Context.start +. rebalance_period))
       loop)
