module Sim = Pdq_engine.Sim
module Units = Pdq_engine.Units
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Header = Pdq_core.Header
module Sender = Pdq_core.Sender
module Switch_port = Pdq_core.Switch_port

type t = {
  ctx : Context.t;
  cfg : Pdq_core.Config.t;
  size_info : Sender.size_info;
  ports : Switch_port.t array; (* per directed link *)
  streams : (int, stream) Hashtbl.t;
}

and stream = {
  proto : t;
  sid : int;
  src : int;
  dst : int;
  mutable size : int;
  deadline_abs : float option;
  core : Sender.t;
  parent : Context.flow option;
  on_event : unit -> unit;
  on_rx : bytes:int -> unit;
  (* Sender side. *)
  mutable next_seq : int;
  mutable sent_hi : int; (* high-water mark of next_seq (go-back-N rewinds) *)
  mutable acked : int;
  mutable dup_acks : int;
  mutable syn_acked : bool;
  mutable last_syn : float;
  mutable syn_wait : float; (* current (backed-off) SYN retransmit delay *)
  mutable syn_retries : int;
  mutable last_ack : float; (* last time any ACK arrived (liveness) *)
  mutable probes_unanswered : int;
  mutable last_progress : float;
  mutable last_tx : float; (* departure time of the previous data packet *)
  mutable send_ev : Sim.handle option;
  mutable probe_ev : Sim.handle option;
  mutable closed : bool;
  mutable terminated : bool;
  (* Allocated once per stream so the pacing, probing and watchdog
     loops reschedule without building a closure per event. *)
  mutable send_fn : unit -> unit;
  mutable probe_fn : unit -> unit;
  mutable watchdog_fn : unit -> unit;
  (* Receiver side. *)
  rx : Rx_buffer.t;
  rx_max_rate : float;
}

let max_payload = Packet.max_payload ~scheduling_header:Payloads.pdq_header_bytes

let noop () = ()
let k_send = Sim.Kind.register "pdq.send"
let k_probe = Sim.Kind.register "pdq.probe"
let k_watchdog = Sim.Kind.register "pdq.watchdog"
let k_rate_ctl = Sim.Kind.register "pdq.rate_ctl"
let k_launch = Sim.Kind.register "pdq.launch"

(* Watchdog hardening: bounded, backed-off retransmission so a flow on
   a dead path reaches a terminal [Aborted] outcome instead of
   retrying forever. The jitter desynchronizes retry storms after a
   shared failure; it is drawn from the run's RNG only on the retry
   path, so fault-free runs consume no extra randomness and stay
   bit-for-bit reproducible. *)
let max_syn_retries = 8
let probe_backoff_threshold = 4
let backoff_cap = 6 (* exponent cap: 64x *)
let abort_after = 1.0 (* s without any ACK before declaring the path dead *)

let jittered rng d = d *. (0.75 +. (0.5 *. Pdq_engine.Rng.float rng))

let config t = t.cfg
let port t link = t.ports.(link)

let port_flow_counts t ~link =
  let port = t.ports.(link) in
  let stored = Pdq_core.Flow_list.length (Switch_port.flow_list port) in
  let active = Switch_port.kappa port in
  (active, stored - active)

let cancel_opt s ev =
  match ev with
  | Some h ->
      Sim.cancel (Context.sim s.proto.ctx) h;
      None
  | None -> None

let now s = Context.now s.proto.ctx
let rto s = max (3. *. Sender.rtt s.core) 1e-3

(* Highest line rate among a host's ports: the rate the host NIC can
   source or sink. *)
let nic_rate topo node =
  List.fold_left
    (fun acc (_, link_id) -> max acc (Link.rate (Topology.link topo link_id)))
    0.
    (Topology.links_from topo node)

let make_pkt s ~kind ?(payload_bytes = 0) ?(seq = 0) ~hdr ~cum_ack () =
  Packet.make ~flow:s.sid ~src:s.src ~dst:s.dst ~kind ~payload_bytes ~seq
    ~extra_header:Payloads.pdq_header_bytes
    ~payload:(Payloads.Pdq_sched (hdr, { Payloads.cum_ack; echo_ts = now s }))
    ~now:(now s) ()

let send_syn s =
  s.last_syn <- now s;
  let hdr = Sender.make_header s.core ~t:(now s) in
  Context.transmit s.proto.ctx ~from:s.src
    (make_pkt s ~kind:Packet.Syn ~hdr ~cum_ack:0 ())

let send_term s =
  let hdr = Sender.make_header s.core ~t:(now s) in
  Context.transmit s.proto.ctx ~from:s.src
    (make_pkt s ~kind:Packet.Term ~hdr ~cum_ack:0 ())

let close_sender s =
  s.closed <- true;
  s.send_ev <- cancel_opt s s.send_ev;
  s.probe_ev <- cancel_opt s s.probe_ev

let finish_sender s =
  if not s.closed then begin
    close_sender s;
    send_term s;
    s.on_event ()
  end

(* Terminal watchdog outcome: bounded retries exhausted or the path
   stayed dead past [abort_after]. Marks the stream terminated (so
   M-PDQ coordinators treat it as closed, not runnable), best-effort
   TERMs the switches to free state, and records the per-cause abort
   on the parent flow. *)
let abort s ~cause =
  if not s.closed then begin
    Debug.debugf "%.6f ABORT flow=%d cause=%s acked=%d/%d" (now s) s.sid cause
      s.acked s.size;
    close_sender s;
    s.terminated <- true;
    send_term s;
    (match s.parent with
    | Some flow -> Context.abort s.proto.ctx flow ~cause
    | None ->
        Context.record_fault s.proto.ctx ("abort.subflow." ^ cause));
    s.on_event ()
  end

let terminate s =
  if not s.closed then begin
    if Debug.on () then
      Debug.debugf
        "%.6f TERMINATE flow=%d remaining=%d acked=%d rate=%g ttx=%g rtt=%g \
         deadline=%s paused_by=%s"
        (now s) s.sid
        (Sender.remaining_bytes s.core)
        s.acked (Sender.rate s.core)
        (Sender.expected_tx_time s.core)
        (Sender.rtt s.core)
        (match s.deadline_abs with
        | Some d -> Printf.sprintf "%.6f" d
        | None -> "-")
        (match Sender.paused_by s.core with
        | Some i -> string_of_int i
        | None -> "-");
    close_sender s;
    s.terminated <- true;
    send_term s;
    (match s.parent with
    | Some flow ->
        flow.Context.terminated <- true;
        Context.flow_closed s.proto.ctx flow
    | None -> ());
    s.on_event ()
  end

let et_enabled s =
  s.proto.cfg.Pdq_core.Config.features.Pdq_core.Config.early_termination

(* Pacing interval at the current granted rate, recomputed whenever the
   rate changes. Bounded so that a transiently tiny grant cannot park
   the sender for many milliseconds: if even the bounded interval
   overshoots the granted rate, the resulting queue makes the rate
   controller pause the flow properly. *)
let pacing_interval s ~wire_bytes =
  let rate = Sender.rate s.core in
  if rate <= 0. then infinity
  else
    min
      (Units.tx_time ~bytes:wire_bytes ~rate)
      (max (4. *. Sender.rtt s.core) 2e-3)

(* Paced data transmission: one packet per event, the next scheduled a
   serialization interval (at the granted rate) later. *)
let send_data s () =
  s.send_ev <- None;
  if (not s.closed) && Sender.rate s.core > 0. && s.next_seq < s.size then begin
    let payload = min max_payload (s.size - s.next_seq) in
    let hdr = Sender.make_header s.core ~t:(now s) in
    let pkt =
      make_pkt s ~kind:Packet.Data ~payload_bytes:payload ~seq:s.next_seq ~hdr
        ~cum_ack:0 ()
    in
    Context.transmit s.proto.ctx ~from:s.src pkt;
    s.next_seq <- s.next_seq + payload;
    if s.next_seq > s.sent_hi then s.sent_hi <- s.next_seq;
    s.last_tx <- now s;
    if s.next_seq < s.size then begin
      let interval = pacing_interval s ~wire_bytes:pkt.Packet.wire_bytes in
      s.send_ev <-
        Some
          (Sim.schedule_k (Context.sim s.proto.ctx) k_send
             ~delay:interval s.send_fn)
    end
  end

let ensure_sending s =
  if
    (not s.closed)
    && s.send_ev = None
    && Sender.rate s.core > 0.
    && s.next_seq < s.size
  then begin
    (* Next departure honours the pacing of the previous packet at the
       *current* rate — a rate increase moves it earlier. *)
    let interval =
      pacing_interval s ~wire_bytes:(max_payload + Packet.header_bytes)
    in
    let delay = max 0. (s.last_tx +. interval -. now s) in
    s.send_ev <-
      Some
        (Sim.schedule_k (Context.sim s.proto.ctx) k_send ~delay s.send_fn)
  end

let probe_loop s () =
  s.probe_ev <- None;
  if (not s.closed) && Sender.is_paused s.core && s.syn_acked then begin
    if Debug.on () then
      Debug.debugf "%.6f probe flow=%d ip=%g rtt=%g" (now s) s.sid
        (Sender.inter_probe_interval s.core)
        (Sender.rtt s.core);
    let hdr = Sender.make_header s.core ~t:(now s) in
    Context.transmit s.proto.ctx ~from:s.src
      (make_pkt s ~kind:Packet.Probe ~hdr ~cum_ack:0 ());
    s.probes_unanswered <- s.probes_unanswered + 1;
    let base = max (Sender.inter_probe_interval s.core) 1e-5 in
    (* A healthy paused flow sees each probe answered within ~1 RTT, so
       more than a few unanswered probes means the path is suspect:
       back the probing off exponentially (with jitter) instead of
       hammering a dead or rebooting switch. *)
    let delay =
      if s.probes_unanswered <= probe_backoff_threshold then base
      else
        let expo = min (s.probes_unanswered - probe_backoff_threshold) backoff_cap in
        jittered (Context.rng s.proto.ctx) (base *. float_of_int (1 lsl expo))
    in
    s.probe_ev <-
      Some
        (Sim.schedule_k (Context.sim s.proto.ctx) k_probe ~delay s.probe_fn)
  end

let ensure_probing s =
  if (not s.closed) && s.probe_ev = None && Sender.is_paused s.core && s.syn_acked
  then begin
    let delay = max (Sender.inter_probe_interval s.core) 1e-5 in
    s.probe_ev <-
      Some
        (Sim.schedule_k (Context.sim s.proto.ctx) k_probe ~delay s.probe_fn)
  end

let adjust_loops s =
  if Sender.is_paused s.core then begin
    s.send_ev <- cancel_opt s s.send_ev;
    ensure_probing s
  end
  else begin
    s.probe_ev <- cancel_opt s s.probe_ev;
    (* Re-pace a pending departure at the fresh rate. *)
    s.send_ev <- cancel_opt s s.send_ev;
    ensure_sending s
  end

(* Watchdog: SYN retransmission (bounded, with exponential backoff and
   jitter once retries mount), go-back-N on stalled cumulative acks,
   liveness abort when no ACK of any kind arrives for [abort_after],
   and Early Termination checks while paused. *)
let watchdog s () =
  if not s.closed then begin
    let t = now s in
    if et_enabled s && Sender.should_terminate s.core ~now:t then terminate s
    else begin
      if (not s.syn_acked) && t -. s.last_syn > s.syn_wait then begin
        if s.syn_retries >= max_syn_retries then abort s ~cause:"syn"
        else begin
          s.syn_retries <- s.syn_retries + 1;
          let expo = min s.syn_retries backoff_cap in
          s.syn_wait <-
            jittered (Context.rng s.proto.ctx)
              (rto s *. float_of_int (1 lsl expo));
          send_syn s
        end
      end
      else if s.syn_acked && s.acked < s.size && t -. s.last_ack > abort_after
      then
        (* Even a legitimately paused flow hears probe ACKs every few
           RTTs; total ACK silence this long means the path (or our
           switch state) is gone for good. *)
        abort s ~cause:"stall"
      else if
        s.syn_acked && s.acked < s.size
        && t -. s.last_progress > rto s
        && Sender.rate s.core > 0.
      then begin
        (* Go-back-N: resume from the cumulative ack point. *)
        (let trace = Context.trace s.proto.ctx in
         if Pdq_telemetry.Trace.active trace && s.next_seq > s.acked then
           Pdq_telemetry.Trace.(
             emit trace (Flow_retransmit { flow = s.sid; kind = "watchdog" })));
        s.next_seq <- s.acked;
        s.last_progress <- t;
        ensure_sending s
      end;
      if not s.closed then begin
        let delay = max (Sender.rtt s.core) 5e-4 in
        ignore
          (Sim.schedule_k (Context.sim s.proto.ctx) k_watchdog ~delay
             s.watchdog_fn)
      end
    end
  end

let on_ack_packet s (hdr : Header.t) (ack : Payloads.ack_info) =
  if Debug.trace_on () then
    Debug.tracef "%.6f ack flow=%d rate=%g pause=%s cum=%d"
      (Context.now s.proto.ctx) s.sid hdr.Header.rate
      (match hdr.Header.pause_by with None -> "-" | Some i -> string_of_int i)
      ack.Payloads.cum_ack;
  if not s.closed then begin
    if not s.syn_acked then begin
      s.syn_acked <- true;
      let trace = Context.trace s.proto.ctx in
      if Pdq_telemetry.Trace.active trace then
        Pdq_telemetry.Trace.(emit trace (Flow_established { flow = s.sid }))
    end;
    let t = now s in
    s.last_ack <- t;
    s.probes_unanswered <- 0;
    let rtt_sample = t -. ack.Payloads.echo_ts in
    Sender.on_ack s.core hdr ~acked_bytes:ack.Payloads.cum_ack
      ~rtt_sample:(Some rtt_sample) ~now:t;
    if ack.Payloads.cum_ack > s.acked then begin
      s.acked <- ack.Payloads.cum_ack;
      s.dup_acks <- 0;
      s.last_progress <- t
    end
    else if
      ack.Payloads.cum_ack = s.acked
      && s.acked < s.next_seq
      && not (Sender.is_paused s.core)
    then begin
      (* Selective repair: a hole at [acked] with later data arriving —
         retransmit just the missing segment instead of waiting for the
         RTO-driven go-back-N. *)
      s.dup_acks <- s.dup_acks + 1;
      if s.dup_acks = 3 then begin
        s.dup_acks <- 0;
        (let trace = Context.trace s.proto.ctx in
         if Pdq_telemetry.Trace.active trace then
           Pdq_telemetry.Trace.(
             emit trace (Flow_retransmit { flow = s.sid; kind = "fast" })));
        let payload = min max_payload (s.size - s.acked) in
        let hdr = Sender.make_header s.core ~t in
        Context.transmit s.proto.ctx ~from:s.src
          (make_pkt s ~kind:Packet.Data ~payload_bytes:payload ~seq:s.acked
             ~hdr ~cum_ack:0 ())
      end
    end;
    if s.acked >= s.size then finish_sender s
    else if et_enabled s && Sender.should_terminate s.core ~now:t then terminate s
    else adjust_loops s;
    s.on_event ()
  end

(* Receiver side: echo the scheduling header into an ACK, capped at the
   receiver NIC rate (§3.2), and carry the cumulative ack. *)
let reply s (pkt : Packet.t) ~kind =
  match pkt.Packet.payload with
  | Payloads.Pdq_sched (hdr, _) ->
      let echo = Header.copy hdr in
      echo.Header.rate <- min echo.Header.rate s.rx_max_rate;
      let ack =
        Packet.make ~flow:s.sid ~src:s.dst ~dst:s.src ~kind
          ~extra_header:Payloads.pdq_header_bytes
          ~payload:
            (Payloads.Pdq_sched
               ( echo,
                 {
                   Payloads.cum_ack = Rx_buffer.cumulative_ack s.rx;
                   echo_ts = pkt.Packet.sent_at;
                 } ))
          ~now:(now s) ()
      in
      Context.transmit s.proto.ctx ~from:s.dst ack
  | _ -> ()

let receiver_handle s (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Syn -> reply s pkt ~kind:Packet.Syn_ack
  | Packet.Probe -> reply s pkt ~kind:Packet.Ack
  | Packet.Data ->
      let before = Rx_buffer.received_bytes s.rx in
      Rx_buffer.on_data s.rx ~seq:pkt.Packet.seq ~bytes:pkt.Packet.payload_bytes;
      let delivered = Rx_buffer.received_bytes s.rx - before in
      if delivered > 0 then begin
        Context.record_rx s.proto.ctx ~flow_id:s.sid ~bytes:delivered;
        s.on_rx ~bytes:delivered
      end;
      (match s.parent with
      | Some flow when Rx_buffer.received_bytes s.rx >= flow.Context.spec.Context.size
        ->
          Context.complete s.proto.ctx flow
      | Some _ | None -> ());
      reply s pkt ~kind:Packet.Ack
  | Packet.Term -> ()
  | Packet.Syn_ack | Packet.Ack -> ()

let deliver t ~node (pkt : Packet.t) =
  match Hashtbl.find_opt t.streams pkt.Packet.flow with
  | None -> ()
  | Some s -> (
      match pkt.Packet.kind with
      | Packet.Syn | Packet.Data | Packet.Probe | Packet.Term ->
          if node = s.dst then receiver_handle s pkt
      | Packet.Syn_ack | Packet.Ack -> (
          if node = s.src then
            match pkt.Packet.payload with
            | Payloads.Pdq_sched (hdr, ack) -> on_ack_packet s hdr ack
            | _ -> ()))

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
          ~init_rtt:(Context.init_rtt ctx) ())
  in
  let t = { ctx; cfg = config; size_info; ports; streams = Hashtbl.create 64 } in
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
    ~deliver:(fun ~node pkt -> deliver t ~node pkt);
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
  let s =
    {
      proto = t;
      sid;
      src;
      dst;
      size;
      deadline_abs;
      core =
        Sender.create ?deadline:deadline_abs
          ~efficiency:(float_of_int max_payload /. float_of_int Packet.mtu)
          ~size_info:t.size_info ~trace:(Context.trace t.ctx) ~flow_id:sid
          ~size_bytes:size ~max_rate:(nic_rate topo src)
          ~init_rtt:(Context.init_rtt t.ctx) ();
      parent;
      on_event;
      on_rx;
      next_seq = 0;
      sent_hi = 0;
      acked = 0;
      dup_acks = 0;
      syn_acked = false;
      last_syn = 0.;
      syn_wait = infinity; (* set to the live RTO at launch *)
      syn_retries = 0;
      last_ack = start;
      probes_unanswered = 0;
      last_progress = start;
      last_tx = neg_infinity;
      send_ev = None;
      probe_ev = None;
      closed = false;
      terminated = false;
      send_fn = noop;
      probe_fn = noop;
      watchdog_fn = noop;
      rx = Rx_buffer.create ?capacity:rx_capacity ~size ~segment:max_payload ();
      rx_max_rate = nic_rate topo dst;
    }
  in
  Hashtbl.replace t.streams sid s;
  s.send_fn <- send_data s;
  s.probe_fn <- probe_loop s;
  s.watchdog_fn <- watchdog s;
  let sim = Context.sim t.ctx in
  let launch () =
    s.syn_wait <- rto s;
    s.last_ack <- now s;
    (let trace = Context.trace t.ctx in
     if Pdq_telemetry.Trace.active trace then
       Pdq_telemetry.Trace.(emit trace (Flow_started { flow = sid })));
    send_syn s;
    watchdog s ()
  in
  if start <= Sim.now sim then launch ()
  else ignore (Sim.schedule_at_k sim k_launch ~time:start launch);
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

let stream_remaining_unsent s = max 0 (s.size - s.sent_hi)
let stream_assigned s = s.size
let stream_is_paused s = Sender.is_paused s.core
let stream_is_done s = s.closed && not s.terminated
let stream_terminated s = s.terminated

let stream_resize s size =
  if size < s.sent_hi then
    invalid_arg "Pdq_proto.stream_resize: cannot cut below sent bytes";
  if s.terminated then invalid_arg "Pdq_proto.stream_resize: stream terminated";
  s.size <- size;
  Rx_buffer.set_size s.rx size;
  Sender.set_size s.core ~size ~acked:s.acked;
  if s.acked >= s.size then begin
    if not s.closed then finish_sender s
  end
  else begin
    (* Growing a stream that had just finished re-opens it: the load
       shifted onto it must actually be sent. *)
    if s.closed then begin
      s.closed <- false;
      s.last_progress <- now s;
      watchdog s ()
    end;
    ensure_sending s
  end

let stream_terminate s = terminate s
