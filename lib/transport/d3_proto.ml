module Sim = Pdq_engine.Sim
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology

let k_tick = Sim.Kind.register "d3.tick"

let min_rate = 1e5

type port = {
  link : Link.t;
  mutable fs : float;           (* fair share from last interval *)
  mutable avail : float;        (* unreserved capacity this interval *)
  mutable demand_acc : float;   (* sum of desired rates this interval *)
  mutable n_acc : int;          (* flows that requested this interval *)
  granted : (int, float) Hashtbl.t; (* flow -> grant this interval *)
  mutable rtt_avg : float;
}

type t = { ctx : Context.t; ports : port array; inner : Rate_flow.t }

let flow_count t ~link = Hashtbl.length t.ports.(link).granted

(* Interval rollover: compute next interval's fair share from this
   interval's demand, reset reservations. *)
let rollover p =
  let q_bits = Pdq_engine.Units.bytes_to_bits (Link.queue_bytes p.link) in
  let c_eff =
    max 0. (Link.rate p.link -. (q_bits /. (2. *. max p.rtt_avg 1e-9)))
  in
  (* Non-negative fair share (the fix described in §5.1). *)
  p.fs <- max 0. ((c_eff -. p.demand_acc) /. float_of_int (max 1 p.n_acc));
  if p.n_acc = 0 then p.fs <- c_eff;
  p.avail <- c_eff;
  p.demand_acc <- 0.;
  p.n_acc <- 0;
  Hashtbl.reset p.granted

let on_forward t ~link (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Payloads.D3_ctrl (ctrl, _) -> (
      match pkt.Packet.kind with
      | Packet.Term -> Hashtbl.remove t.ports.(link).granted pkt.Packet.flow
      | Packet.Syn | Packet.Data | Packet.Probe -> (
          let p = t.ports.(link) in
          if ctrl.Payloads.d3_rtt > 0. then
            p.rtt_avg <- (0.875 *. p.rtt_avg) +. (0.125 *. ctrl.Payloads.d3_rtt);
          match Hashtbl.find_opt p.granted pkt.Packet.flow with
          | Some g ->
              ctrl.Payloads.d3_allocated <- min ctrl.Payloads.d3_allocated g
          | None ->
              (* First request of the interval: reserve greedily, in
                 arrival order (first-come first-reserve). *)
              p.demand_acc <- p.demand_acc +. ctrl.Payloads.d3_desired;
              p.n_acc <- p.n_acc + 1;
              let g = max 0. (min (ctrl.Payloads.d3_desired +. p.fs) p.avail) in
              p.avail <- p.avail -. g;
              Hashtbl.replace p.granted pkt.Packet.flow g;
              ctrl.Payloads.d3_allocated <- min ctrl.Payloads.d3_allocated g)
      | Packet.Syn_ack | Packet.Ack -> ())
  | _ -> ()

(* Sender-side desired rate: remaining size over time to deadline. *)
let desired_rate s ~now =
  match Rate_flow.sender_deadline s with
  | None -> 0.
  | Some d ->
      let remaining_bits =
        Pdq_engine.Units.bytes_to_bits (Rate_flow.sender_remaining s)
      in
      if d <= now then infinity else remaining_bits /. (d -. now)

let ops ctx nic_rate : Rate_flow.ops =
  {
    Rate_flow.extra_header = Payloads.d3_header_bytes;
    min_rate;
    fwd_payload =
      (fun s _kind ->
        let now = Context.now ctx in
        let desired = desired_rate s ~now in
        Payloads.D3_ctrl
          ( {
              Payloads.d3_desired = (if desired = infinity then nic_rate else desired);
              d3_allocated = infinity;
              d3_rtt = Rate_flow.sender_rtt s;
            },
            { Payloads.cum_ack = 0; echo_ts = now } ));
    ack_payload =
      (fun ~cum_ack ~echo_ts pkt ->
        match pkt.Packet.payload with
        | Payloads.D3_ctrl (ctrl, _) ->
            Payloads.D3_ctrl
              ( {
                  Payloads.d3_desired = ctrl.Payloads.d3_desired;
                  d3_allocated = ctrl.Payloads.d3_allocated;
                  d3_rtt = 0.;
                },
                { Payloads.cum_ack; echo_ts } )
        | _ ->
            Payloads.D3_ctrl
              ( { Payloads.d3_desired = 0.; d3_allocated = min_rate; d3_rtt = 0. },
                { Payloads.cum_ack; echo_ts } ));
    rate_of_ack =
      (fun s pkt ->
        match pkt.Packet.payload with
        | Payloads.D3_ctrl (ctrl, _) ->
            if Debug.trace_on () then
              Debug.tracef "%.6f d3-ack flow=%d desired=%.3e alloc=%.3e"
                (Context.now ctx)
                (Rate_flow.sender_flow s).Context.id ctrl.Payloads.d3_desired
                ctrl.Payloads.d3_allocated;
            Some ctrl.Payloads.d3_allocated
        | _ -> None);
    (* Quenching: kill a deadline flow once the deadline passed or the
       required rate exceeds what the NIC could ever deliver. *)
    quench =
      (fun s ~now ->
        match Rate_flow.sender_deadline s with
        | None -> false
        | Some d ->
            Rate_flow.sender_remaining s > 0
            && (now >= d || desired_rate s ~now > nic_rate));
  }

let install ~ctx ~until =
  let topo = Context.topo ctx in
  let ports =
    Array.init (Topology.link_count topo) (fun i ->
        let link = Topology.link topo i in
        {
          link;
          fs = Link.rate link;
          avail = Link.rate link;
          demand_acc = 0.;
          n_acc = 0;
          granted = Hashtbl.create 16;
          rtt_avg = Context.init_rtt ctx;
        })
  in
  (* NIC rate: hosts are homogeneous in our topologies; use the first
     host link's rate as the quench bound. *)
  let nic_rate =
    match Topology.hosts topo with
    | [||] -> Pdq_engine.Units.gbps 1.
    | hs -> (
        match Topology.links_from topo hs.(0) with
        | (_, l) :: _ -> Link.rate (Topology.link topo l)
        | [] -> Pdq_engine.Units.gbps 1.)
  in
  let inner = Rate_flow.install ~ctx ~ops:(ops ctx nic_rate) in
  let t = { ctx; ports; inner } in
  (* Crash-reboot: reservations and estimators are soft state; the
     next allocation interval rebuilds them from live requests. *)
  Context.on_switch_reboot ctx (fun node ->
      Array.iter
        (fun p ->
          if Link.src p.link = node then begin
            Hashtbl.reset p.granted;
            p.fs <- Link.rate p.link;
            p.avail <- Link.rate p.link;
            p.demand_acc <- 0.;
            p.n_acc <- 0;
            p.rtt_avg <- Context.init_rtt ctx
          end)
        ports);
  Context.set_hooks ctx
    ~on_forward:(fun ~link pkt -> on_forward t ~link pkt)
    ~on_reverse:(fun ~fwd_link:_ _ -> ())
    ~deliver:(fun ~node pkt -> Rate_flow.deliver inner ~node pkt);
  let sim = Context.sim ctx in
  Array.iter
    (fun p ->
      let rec tick () =
        if Sim.now sim <= until then begin
          rollover p;
          ignore (Sim.schedule_k sim k_tick ~delay:(max p.rtt_avg 5e-5) tick)
        end
      in
      ignore (Sim.schedule_k sim k_tick ~delay:0. tick))
    ports;
  t

let start_flow t flow = Rate_flow.start_flow t.inner flow
