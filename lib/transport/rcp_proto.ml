module Sim = Pdq_engine.Sim
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology

let k_tick = Sim.Kind.register "rcp.tick"

(* A very low floor keeps every flow probing forward progress; real RCP
   hands out a minimum of one packet per RTT. *)
let min_rate = 1e5

type port = {
  link : Link.t;
  flows : (int, float) Hashtbl.t; (* flow id -> last seen *)
  mutable fair : float;
  mutable rtt_avg : float;
}

type t = {
  ctx : Context.t;
  ports : port array;
  inner : Endpoint.explicit Endpoint.t;
}

let recompute_fair p ~now:_ =
  let n = max 1 (Hashtbl.length p.flows) in
  let q_bits = Pdq_engine.Units.bytes_to_bits (Link.queue_bytes p.link) in
  let c_eff = Link.rate p.link -. (q_bits /. (2. *. max p.rtt_avg 1e-9)) in
  p.fair <- max min_rate (min (Link.rate p.link) (c_eff /. float_of_int n))

let flow_count t ~link = Hashtbl.length t.ports.(link).flows

let on_forward t ~link (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Payloads.Rcp_ctrl (ctrl, _) -> (
      let p = t.ports.(link) in
      let now = Context.now t.ctx in
      match pkt.Packet.kind with
      | Packet.Term ->
          Hashtbl.remove p.flows pkt.Packet.flow;
          recompute_fair p ~now
      | Packet.Syn | Packet.Data | Packet.Probe ->
          if not (Hashtbl.mem p.flows pkt.Packet.flow) then begin
            Hashtbl.replace p.flows pkt.Packet.flow now;
            recompute_fair p ~now
          end
          else Hashtbl.replace p.flows pkt.Packet.flow now;
          if ctrl.Payloads.rcp_rtt > 0. then
            p.rtt_avg <-
              (0.875 *. p.rtt_avg) +. (0.125 *. ctrl.Payloads.rcp_rtt);
          ctrl.Payloads.rcp_rate <- min ctrl.Payloads.rcp_rate p.fair
      | Packet.Syn_ack | Packet.Ack -> ())
  | _ -> ()

let ops =
  Endpoint.explicit_rate ~extra_header:Payloads.rcp_header_bytes ~min_rate
    ~payload:(fun s ->
      Payloads.Rcp_ctrl
        ( { Payloads.rcp_rate = infinity; rcp_rtt = s.Endpoint.rtt },
          { Payloads.cum_ack = 0; echo_ts = Endpoint.now s } ))
    ~reply:(fun _ pkt ack ->
      match pkt.Packet.payload with
      | Payloads.Rcp_ctrl (ctrl, _) ->
          Payloads.Rcp_ctrl
            ({ Payloads.rcp_rate = ctrl.Payloads.rcp_rate; rcp_rtt = 0. }, ack)
      | _ -> invalid_arg "Rcp_proto: not an RCP packet")
    ~grant:(fun _ pkt ->
      match pkt.Packet.payload with
      | Payloads.Rcp_ctrl (ctrl, _) -> Some ctrl.Payloads.rcp_rate
      | _ -> None)
    ~quench:(fun _ ~now:_ -> false)

(* Purge flows whose sender vanished without a TERM (packet loss): a
   generous horizon so slow flows are never evicted spuriously. *)
let purge p ~now =
  let stale =
    Hashtbl.fold
      (fun id seen acc -> if now -. seen > 0.5 then id :: acc else acc)
      p.flows []
  in
  if stale <> [] then begin
    List.iter (Hashtbl.remove p.flows) stale;
    recompute_fair p ~now
  end

let install ~ctx ~until =
  let topo = Context.topo ctx in
  let ports =
    Array.init (Topology.link_count topo) (fun i ->
        let link = Topology.link topo i in
        {
          link;
          flows = Hashtbl.create 16;
          fair = Link.rate link;
          rtt_avg = Context.init_rtt ctx;
        })
  in
  let inner = Endpoint.create ctx ops in
  let t = { ctx; ports; inner } in
  (* Crash-reboot: the per-port flow table is soft state rebuilt from
     the next packets through; reset the estimators to their initial
     values. *)
  Context.on_switch_reboot ctx (fun node ->
      Array.iter
        (fun p ->
          if Link.src p.link = node then begin
            Hashtbl.reset p.flows;
            p.fair <- Link.rate p.link;
            p.rtt_avg <- Context.init_rtt ctx
          end)
        ports);
  Context.set_hooks ctx
    ~on_forward:(fun ~link pkt -> on_forward t ~link pkt)
    ~on_reverse:(fun ~fwd_link:_ _ -> ())
    ~deliver:(Endpoint.deliver inner);
  let sim = Context.sim ctx in
  Array.iter
    (fun p ->
      let rec tick () =
        if Sim.now sim <= until then begin
          let now = Sim.now sim in
          purge p ~now;
          recompute_fair p ~now;
          ignore (Sim.schedule_k sim k_tick ~delay:(max p.rtt_avg 5e-5) tick)
        end
      in
      ignore (Sim.schedule_k sim k_tick ~delay:0. tick))
    ports;
  t

let start_flow t flow = Endpoint.start_flow t.inner flow
