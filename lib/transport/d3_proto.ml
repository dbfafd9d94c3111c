module Sim = Pdq_engine.Sim
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Int_table = Pdq_engine.Int_table

let k_tick = Sim.Kind.register "d3.tick"

(* Stdlib's [min]/[max] on floats without the polymorphic compare: the
   same results, NaN and signed zeros included. Local to this module:
   the dev profile compiles libraries [-opaque], so a helper from
   another module would not be inlined. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

let min_rate = 1e5

type port = {
  link : Link.t;
  mutable fs : float;           (* fair share from last interval *)
  mutable avail : float;        (* unreserved capacity this interval *)
  mutable demand_acc : float;   (* sum of desired rates this interval *)
  mutable n_acc : int;          (* flows that requested this interval *)
  granted : float Int_table.t; (* flow -> grant this interval *)
  mutable rtt_avg : float;
}

type t = { ports : port array; inner : Endpoint.explicit Endpoint.t }

let flow_count t ~link = Int_table.length t.ports.(link).granted

(* Interval rollover: compute next interval's fair share from this
   interval's demand, reset reservations. *)
let rollover p =
  let q_bits = Pdq_engine.Units.bytes_to_bits (Link.queue_bytes p.link) in
  let c_eff =
    fmax 0. (Link.rate p.link -. (q_bits /. (2. *. fmax p.rtt_avg 1e-9)))
  in
  (* Non-negative fair share (the fix described in §5.1). *)
  p.fs <- fmax 0. ((c_eff -. p.demand_acc) /. float_of_int (Int.max 1 p.n_acc));
  if p.n_acc = 0 then p.fs <- c_eff;
  p.avail <- c_eff;
  p.demand_acc <- 0.;
  p.n_acc <- 0;
  Int_table.clear p.granted

let on_forward t ~link (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Payloads.D3_ctrl (ctrl, _) -> (
      match pkt.Packet.kind with
      | Packet.Term -> Int_table.remove t.ports.(link).granted pkt.Packet.flow
      | Packet.Syn | Packet.Data | Packet.Probe -> (
          let p = t.ports.(link) in
          if ctrl.Payloads.d3_rtt > 0. then
            p.rtt_avg <- (0.875 *. p.rtt_avg) +. (0.125 *. ctrl.Payloads.d3_rtt);
          match Int_table.find p.granted pkt.Packet.flow with
          | g ->
              ctrl.Payloads.d3_allocated <- fmin ctrl.Payloads.d3_allocated g
          | exception Not_found ->
              (* First request of the interval: reserve greedily, in
                 arrival order (first-come first-reserve). *)
              p.demand_acc <- p.demand_acc +. ctrl.Payloads.d3_desired;
              p.n_acc <- p.n_acc + 1;
              let g =
                fmax 0. (fmin (ctrl.Payloads.d3_desired +. p.fs) p.avail)
              in
              p.avail <- p.avail -. g;
              Int_table.replace p.granted pkt.Packet.flow g;
              ctrl.Payloads.d3_allocated <- fmin ctrl.Payloads.d3_allocated g)
      | Packet.Syn_ack | Packet.Ack -> ())
  | _ -> ()

(* Sender-side desired rate: remaining size over time to deadline. *)
let desired_rate (s : Endpoint.explicit Endpoint.sender) ~now =
  match s.flow with
  | Some { Context.deadline_abs = Some d; _ } ->
      let remaining_bits =
        Pdq_engine.Units.bytes_to_bits (Int.max 0 (s.size - s.acked))
      in
      if d <= now then infinity else remaining_bits /. (d -. now)
  | Some _ | None -> 0.

let ops =
  Endpoint.explicit_rate ~extra_header:Payloads.d3_header_bytes ~min_rate
    ~payload:(fun s ->
      let now = Endpoint.now s in
      let desired = desired_rate s ~now in
      Payloads.D3_ctrl
        ( {
            Payloads.d3_desired =
              (if desired = infinity then s.Endpoint.ext.Endpoint.nic
               else desired);
            d3_allocated = infinity;
            d3_rtt = s.Endpoint.rtt;
          },
          { Payloads.cum_ack = 0; echo_ts = now } ))
    ~reply:(fun _ pkt ack ->
      match pkt.Packet.payload with
      | Payloads.D3_ctrl (ctrl, _) ->
          Payloads.D3_ctrl ({ ctrl with Payloads.d3_rtt = 0. }, ack)
      | _ -> invalid_arg "D3_proto: not a D3 packet")
    ~grant:(fun _ pkt ->
      match pkt.Packet.payload with
      | Payloads.D3_ctrl (ctrl, _) -> Some ctrl.Payloads.d3_allocated
      | _ -> None)
      (* Quenching: kill a deadline flow once the deadline passed or the
         required rate exceeds what the source NIC could ever deliver. *)
    ~quench:(fun s ~now ->
      match s.Endpoint.flow with
      | Some { Context.deadline_abs = Some d; _ } ->
          s.Endpoint.acked < s.Endpoint.size
          && (now >= d || desired_rate s ~now > s.Endpoint.ext.Endpoint.nic)
      | Some _ | None -> false)

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
          granted = Int_table.create 0;
          rtt_avg = Context.init_rtt;
        })
  in
  let inner = Endpoint.create ctx ops in
  let t = { ports; inner } in
  Context.set_hooks ctx
    ~on_forward:(fun ~link pkt -> on_forward t ~link pkt)
    ~on_reverse:(fun ~fwd_link:_ _ -> ())
    ~deliver:(Endpoint.deliver inner);
  (* Crash-reboot: reservations and estimators are soft state; the
     next allocation interval rebuilds them from live requests. *)
  Context.run_switch_ports ctx ports ~kind:k_tick ~until
    ~flush:(fun p ->
      Int_table.clear p.granted;
      p.fs <- Link.rate p.link;
      p.avail <- Link.rate p.link;
      p.demand_acc <- 0.;
      p.n_acc <- 0;
      p.rtt_avg <- Context.init_rtt)
    ~tick:(fun p ~link:_ ~now:_ ->
      rollover p;
      fmax p.rtt_avg 5e-5);
  t

let start_flow t flow = Endpoint.start_flow t.inner flow
