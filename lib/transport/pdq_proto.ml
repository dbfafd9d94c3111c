module Sim = Pdq_engine.Sim
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Header = Pdq_core.Header
module Sender = Pdq_core.Sender
module Switch_port = Pdq_core.Switch_port

(* PDQ's part of a stream: the §3.1 sender state machine, the probe
   loop of a paused flow, fast-retransmit state and the M-PDQ
   callbacks. *)
type pdq = {
  core : Sender.t;
  mutable dup_acks : int;
  mutable probes_unanswered : int;
  mutable probe_ev : Sim.handle option;
  mutable probe_fn : unit -> unit; (* allocated once, like send_fn *)
  on_rx : bytes:int -> unit;
  on_event : unit -> unit;
  rx_max_rate : float;
}

type stream = pdq Endpoint.sender

type t = {
  ctx : Context.t;
  cfg : Pdq_core.Config.t;
  size_info : Sender.size_info;
  ports : Switch_port.t array; (* per directed link *)
  endpoint : pdq Endpoint.t;
}

let max_payload =
  Packet.max_payload ~scheduling_header:Payloads.pdq_header_bytes

let k_send = Sim.Kind.register "pdq.send"
let k_probe = Sim.Kind.register "pdq.probe"
let k_watchdog = Sim.Kind.register "pdq.watchdog"
let k_rate_ctl = Sim.Kind.register "pdq.rate_ctl"
let k_launch = Sim.Kind.register "pdq.launch"

let probe_backoff_threshold = 4

let config t = t.cfg
let port t link = t.ports.(link)

let port_flow_counts t ~link =
  let port = t.ports.(link) in
  let stored = Pdq_core.Flow_list.length (Switch_port.flow_list port) in
  let active = Switch_port.kappa port in
  (active, stored - active)

let probe_loop (s : stream) () =
  let p = s.ext in
  p.probe_ev <- None;
  if (not s.closed) && Sender.is_paused p.core && s.syn_acked then begin
    if Debug.on () then
      Debug.debugf "%.6f probe flow=%d ip=%g rtt=%g" (Endpoint.now s) s.id
        (Sender.inter_probe_interval p.core)
        (Sender.rtt p.core);
    Endpoint.transmit s (Endpoint.make_pkt s ~kind:Packet.Probe ());
    p.probes_unanswered <- p.probes_unanswered + 1;
    let base = max (Sender.inter_probe_interval p.core) 1e-5 in
    (* A healthy paused flow sees each probe answered within ~1 RTT, so
       more than a few unanswered probes means the path is suspect:
       back the probing off exponentially (with jitter) instead of
       hammering a dead or rebooting switch. *)
    let delay =
      if p.probes_unanswered <= probe_backoff_threshold then base
      else
        let expo =
          min
            (p.probes_unanswered - probe_backoff_threshold)
            Endpoint.backoff_cap
        in
        Endpoint.jittered (Context.rng s.ctx)
          (base *. float_of_int (1 lsl expo))
    in
    p.probe_ev <-
      Some (Sim.schedule_k (Context.sim s.ctx) k_probe ~delay p.probe_fn)
  end

(* After every ACK and when the stream closes: probe while paused, stop
   probing otherwise, and tell the M-PDQ coordinator. *)
let sync (s : stream) =
  let p = s.ext in
  if (not s.closed) && Sender.is_paused p.core then begin
    if p.probe_ev = None && s.syn_acked then begin
      let delay = max (Sender.inter_probe_interval p.core) 1e-5 in
      p.probe_ev <-
        Some (Sim.schedule_k (Context.sim s.ctx) k_probe ~delay p.probe_fn)
    end
  end
  else p.probe_ev <- Endpoint.cancel_opt s p.probe_ev;
  p.on_event ()

let on_ack (s : stream) (pkt : Packet.t) (ack : Payloads.ack_info) ~now =
  match pkt.Packet.payload with
  | Payloads.Pdq_sched (hdr, _) ->
      let p = s.ext in
      if Debug.trace_on () then
        Debug.tracef "%.6f ack flow=%d rate=%g pause=%s cum=%d" now s.id
          hdr.Header.rate
          (match hdr.Header.pause_by with
          | None -> "-"
          | Some i -> string_of_int i)
          ack.Payloads.cum_ack;
      p.probes_unanswered <- 0;
      Sender.on_ack p.core hdr ~acked_bytes:ack.Payloads.cum_ack
        ~rtt_sample:(Some (now -. ack.Payloads.echo_ts))
        ~now;
      s.rate <- Sender.rate p.core;
      s.rtt <- Sender.rtt p.core;
      if ack.Payloads.cum_ack > s.acked then p.dup_acks <- 0
      else if
        ack.Payloads.cum_ack = s.acked
        && s.acked < s.next_seq
        && not (Sender.is_paused p.core)
      then begin
        (* Selective repair: a hole at [acked] with later data arriving —
           retransmit just the missing segment instead of waiting for the
           RTO-driven go-back-N. *)
        p.dup_acks <- p.dup_acks + 1;
        if p.dup_acks = 3 then begin
          p.dup_acks <- 0;
          (let trace = Context.trace s.ctx in
           if Pdq_telemetry.Trace.active trace then
             Pdq_telemetry.Trace.(
               emit trace (Flow_retransmit { flow = s.id; kind = "fast" })));
          let payload = min max_payload (s.size - s.acked) in
          Endpoint.transmit s
            (Endpoint.make_pkt s ~kind:Packet.Data ~payload_bytes:payload
               ~seq:s.acked ())
        end
      end
  | _ -> ()

(* Receiver side: echo the scheduling header, capped at the receiver
   NIC rate (§3.2). *)
let reply (s : stream) (pkt : Packet.t) ack =
  match pkt.Packet.payload with
  | Payloads.Pdq_sched (hdr, _) ->
      let echo = Header.copy hdr in
      echo.Header.rate <- min echo.Header.rate s.ext.rx_max_rate;
      Payloads.Pdq_sched (echo, ack)
  | _ -> invalid_arg "Pdq_proto.reply: not a PDQ packet"

let ops (cfg : Pdq_core.Config.t) : pdq Endpoint.ops =
  {
    Endpoint.k_send;
    k_watchdog;
    k_launch;
    extra_header = Payloads.pdq_header_bytes;
    payload =
      (fun s ->
        let t = Endpoint.now s in
        Payloads.Pdq_sched
          ( Sender.make_header s.ext.core ~t,
            { Payloads.cum_ack = 0; echo_ts = t } ));
    reply;
    on_ack;
    should_terminate =
      (if cfg.Pdq_core.Config.features.Pdq_core.Config.early_termination then
         fun s ~now -> Sender.should_terminate s.ext.core ~now
       else fun _ ~now:_ -> false);
    tick = (fun s ~now:_ -> max s.rtt 5e-4);
    sync;
    on_rx = (fun s ~bytes -> s.ext.on_rx ~bytes);
  }

let on_forward t ~link (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Payloads.Pdq_sched (hdr, _) -> (
      let port = t.ports.(link) in
      let tnow = Context.now t.ctx in
      match pkt.Packet.kind with
      | Packet.Term -> Switch_port.remove_flow port pkt.Packet.flow ~now:tnow
      | Packet.Syn | Packet.Data | Packet.Probe ->
          Switch_port.process_forward port hdr ~flow_id:pkt.Packet.flow ~now:tnow
      | Packet.Syn_ack | Packet.Ack -> ())
  | _ -> ()

let on_reverse t ~fwd_link (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Payloads.Pdq_sched (hdr, _) ->
      Switch_port.process_reverse t.ports.(fwd_link) hdr ~flow_id:pkt.Packet.flow
        ~now:(Context.now t.ctx)
  | _ -> ()

let install ?(size_info = Sender.Known) ~config ~ctx ~until () =
  let topo = Context.topo ctx in
  let ports =
    Array.init (Topology.link_count topo) (fun i ->
        let link = Topology.link topo i in
        Switch_port.create ~trace:(Context.trace ctx) ~config
          ~switch_id:(Link.src link) ~link_rate:(Link.rate link)
          ~init_rtt:Context.init_rtt ())
  in
  let endpoint = Endpoint.create ctx (ops config) in
  let t = { ctx; cfg = config; size_info; ports; endpoint } in
  (* A crash-rebooted switch loses all per-flow soft state; it is
     rebuilt on the fly from the scheduling headers of packets flowing
     through (§3.4 of the paper — the state is deliberately soft). *)
  Context.on_switch_reboot ctx (fun node ->
      Array.iteri
        (fun i port ->
          if Link.src (Topology.link topo i) = node then Switch_port.flush port)
        ports);
  Context.set_hooks ctx
    ~on_forward:(fun ~link pkt -> on_forward t ~link pkt)
    ~on_reverse:(fun ~fwd_link pkt -> on_reverse t ~fwd_link pkt)
    ~deliver:(Endpoint.deliver t.endpoint);
  (* Per-port rate-controller loops (§3.3.3): update C every 2 average
     RTTs from the instantaneous queue. *)
  let sim = Context.sim ctx in
  Array.iteri
    (fun i port ->
      let link = Topology.link topo i in
      let rec tick () =
        if Sim.now sim <= until then begin
          Switch_port.update_rate_controller port
            ~queue_bytes:(Link.queue_bytes link) ~now:(Sim.now sim);
          let delay = max (Switch_port.rate_update_interval port) 2e-5 in
          ignore (Sim.schedule_k sim k_rate_ctl ~delay tick)
        end
      in
      ignore (Sim.schedule_k sim k_rate_ctl ~delay:0. tick))
    ports;
  t

let launch_stream ?rx_capacity t ~sid ~src ~dst ~size ~deadline_abs ~start ~on_rx
    ~on_event ~parent =
  let topo = Context.topo t.ctx in
  let core =
    Sender.create ?deadline:deadline_abs ~size_info:t.size_info
      ~trace:(Context.trace t.ctx) ~flow_id:sid ~size_bytes:size ~max_rate:(Endpoint.nic_rate topo src)
      ~init_rtt:Context.init_rtt ()
  in
  let s =
    Endpoint.launch t.endpoint ~id:sid ~src ~dst ~size
      ~capacity:(Option.value rx_capacity ~default:size)
      ~start ~flow:parent
      {
        core;
        dup_acks = 0;
        probes_unanswered = 0;
        probe_ev = None;
        probe_fn = ignore;
        on_rx;
        on_event;
        rx_max_rate = Endpoint.nic_rate topo dst;
      }
  in
  (* No probe is due before the SYN-ACK, which arrives in a later event
     than this launch. *)
  s.ext.probe_fn <- probe_loop s;
  s

let start_stream ?rx_capacity t ~sid ~src ~dst ~size ~deadline_abs ~start ~on_rx
    ~on_event =
  launch_stream ?rx_capacity t ~sid ~src ~dst ~size ~deadline_abs ~start ~on_rx
    ~on_event ~parent:None

let start_flow t (flow : Context.flow) =
  let spec = flow.Context.spec in
  ignore
    (launch_stream t ~sid:flow.Context.id ~src:spec.Context.src
       ~dst:spec.Context.dst ~size:spec.Context.size
       ~deadline_abs:flow.Context.deadline_abs ~start:spec.Context.start
       ~on_rx:(fun ~bytes:_ -> ())
       ~on_event:(fun () -> ())
       ~parent:(Some flow))

let stream_remaining_unsent (s : stream) = max 0 (s.size - s.sent_hi)
let stream_assigned (s : stream) = s.size
let stream_is_paused (s : stream) = Sender.is_paused s.ext.core
let stream_is_done (s : stream) = s.closed && not s.terminated
let stream_terminated (s : stream) = s.terminated

let stream_resize (s : stream) size =
  if size < s.sent_hi then
    invalid_arg "Pdq_proto.stream_resize: cannot cut below sent bytes";
  if s.terminated then invalid_arg "Pdq_proto.stream_resize: stream terminated";
  s.size <- size;
  Rx_buffer.set_size s.rx size;
  Sender.set_size s.ext.core ~size ~acked:s.acked;
  if s.acked >= s.size then Endpoint.finish s
  else begin
    (* Growing a stream that had just finished re-opens it: the load
       shifted onto it must actually be sent. *)
    if s.closed then begin
      s.closed <- false;
      s.last_progress <- Endpoint.now s;
      s.watchdog_fn ()
    end;
    Endpoint.ensure_sending s
  end

let stream_terminate = Endpoint.terminate
