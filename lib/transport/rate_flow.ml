module Sim = Pdq_engine.Sim
module Units = Pdq_engine.Units
module Packet = Pdq_net.Packet

type sender = {
  proto : t;
  flow : Context.flow;
  mutable rate : float;
  mutable rtt : float;
  mutable next_seq : int;
  mutable acked : int;
  mutable syn_acked : bool;
  mutable last_syn : float;
  mutable syn_wait : float; (* current (backed-off) SYN retransmit delay *)
  mutable syn_retries : int;
  mutable last_ack : float; (* last time any ACK arrived (liveness) *)
  mutable last_progress : float;
  mutable last_tx : float;
  mutable send_ev : Sim.handle option;
  mutable closed : bool;
  (* Allocated once per sender so the pacing and watchdog loops
     reschedule without building a closure per event. *)
  mutable send_fn : unit -> unit;
  mutable watchdog_fn : unit -> unit;
  rx : Rx_buffer.t;
}
(* Senders refresh their rate request every RTT with a header-only
   probe whenever data pacing is slower than that (D3/RCP senders
   piggyback requests on data, but a throttled flow would otherwise
   miss every allocation interval and starve). *)

and ops = {
  extra_header : int;
  min_rate : float;
  fwd_payload : sender -> Packet.kind -> Packet.payload;
  ack_payload : cum_ack:int -> echo_ts:float -> Packet.t -> Packet.payload;
  rate_of_ack : sender -> Packet.t -> float option;
  quench : sender -> now:float -> bool;
}

and t = { ctx : Context.t; ops : ops; senders : (int, sender) Hashtbl.t }

let install ~ctx ~ops = { ctx; ops; senders = Hashtbl.create 64 }

let noop () = ()
let k_send = Sim.Kind.register "rate.send"
let k_watchdog = Sim.Kind.register "rate.watchdog"
let k_launch = Sim.Kind.register "rate.launch"

let sender_flow s = s.flow
let sender_rtt s = s.rtt
let sender_remaining s = max 0 (s.flow.Context.spec.Context.size - s.acked)
let sender_deadline s = s.flow.Context.deadline_abs

let now s = Context.now s.proto.ctx
let size s = s.flow.Context.spec.Context.size
let rto s = max (3. *. s.rtt) 1e-3
let max_payload s = Packet.max_payload ~scheduling_header:s.proto.ops.extra_header

let make_pkt s ~kind ?(payload_bytes = 0) ?(seq = 0) () =
  let spec = s.flow.Context.spec in
  Packet.make ~flow:s.flow.Context.id ~src:spec.Context.src ~dst:spec.Context.dst
    ~kind ~payload_bytes ~seq ~extra_header:s.proto.ops.extra_header
    ~payload:(s.proto.ops.fwd_payload s kind)
    ~now:(now s) ()

let transmit s pkt =
  Context.transmit s.proto.ctx ~from:s.flow.Context.spec.Context.src pkt

let send_syn s =
  s.last_syn <- now s;
  transmit s (make_pkt s ~kind:Packet.Syn ())

let send_term s = transmit s (make_pkt s ~kind:Packet.Term ())

let cancel_opt s = function
  | Some h ->
      Sim.cancel (Context.sim s.proto.ctx) h;
      None
  | None -> None

let close_sender s =
  s.closed <- true;
  s.send_ev <- cancel_opt s s.send_ev

let finish_sender s =
  if not s.closed then begin
    close_sender s;
    send_term s
  end

let quench s =
  if not s.closed then begin
    close_sender s;
    send_term s;
    s.flow.Context.terminated <- true;
    Context.flow_closed s.proto.ctx s.flow
  end

(* Hardened-watchdog constants shared with the PDQ transport: bounded
   SYN retries with exponential backoff and jitter, and a liveness
   abort when the path stays silent. Jitter draws from the run RNG
   only on the retry path, so fault-free runs are unperturbed. *)
let max_syn_retries = 8
let backoff_cap = 6
let abort_after = 1.0

let jittered rng d = d *. (0.75 +. (0.5 *. Pdq_engine.Rng.float rng))

let abort s ~cause =
  if not s.closed then begin
    close_sender s;
    send_term s;
    Context.abort s.proto.ctx s.flow ~cause
  end

(* Pacing interval at the current rate, bounded so a transiently tiny
   grant cannot park the sender; the explicit-rate feedback corrects
   any resulting overshoot within an RTT. *)
let pacing_interval s ~wire_bytes =
  if s.rate <= 0. then infinity
  else min (Units.tx_time ~bytes:wire_bytes ~rate:s.rate) (max (4. *. s.rtt) 2e-3)

let send_data s () =
  s.send_ev <- None;
  if (not s.closed) && s.rate > 0. && s.next_seq < size s then begin
    let payload = min (max_payload s) (size s - s.next_seq) in
    let pkt = make_pkt s ~kind:Packet.Data ~payload_bytes:payload ~seq:s.next_seq () in
    transmit s pkt;
    s.next_seq <- s.next_seq + payload;
    s.last_tx <- now s;
    if s.next_seq < size s then begin
      let interval = pacing_interval s ~wire_bytes:pkt.Packet.wire_bytes in
      s.send_ev <-
        Some
          (Sim.schedule_k (Context.sim s.proto.ctx) k_send
             ~delay:interval s.send_fn)
    end
  end

let ensure_sending s =
  if (not s.closed) && s.send_ev = None && s.rate > 0. && s.next_seq < size s then begin
    let interval =
      pacing_interval s ~wire_bytes:(max_payload s + Packet.header_bytes)
    in
    let delay = max 0. (s.last_tx +. interval -. now s) in
    s.send_ev <-
      Some
        (Sim.schedule_k (Context.sim s.proto.ctx) k_send ~delay s.send_fn)
  end

let watchdog s () =
  if not s.closed then begin
    let t = now s in
    if s.proto.ops.quench s ~now:t then quench s
    else begin
      if (not s.syn_acked) && t -. s.last_syn > s.syn_wait then begin
        if s.syn_retries >= max_syn_retries then abort s ~cause:"syn"
        else begin
          s.syn_retries <- s.syn_retries + 1;
          let expo = min s.syn_retries backoff_cap in
          s.syn_wait <-
            jittered
              (Context.rng s.proto.ctx)
              (rto s *. float_of_int (1 lsl expo));
          send_syn s
        end
      end
      else if s.syn_acked && s.acked < size s && t -. s.last_ack > abort_after
      then abort s ~cause:"stall"
      else if s.syn_acked && s.acked < size s && t -. s.last_progress > rto s then begin
        (let trace = Context.trace s.proto.ctx in
         if Pdq_telemetry.Trace.active trace && s.next_seq > s.acked then
           Pdq_telemetry.Trace.(
             emit trace
               (Flow_retransmit { flow = s.flow.Context.id; kind = "watchdog" })));
        s.next_seq <- s.acked;
        s.last_progress <- t;
        ensure_sending s
      end;
      if not s.closed then begin
        (* Per-RTT rate-request probe when data is not flowing fast
           enough to carry requests itself. *)
        if s.syn_acked && s.acked < size s && t -. s.last_tx > s.rtt then
          transmit s (make_pkt s ~kind:Packet.Probe ());
        ignore
          (Sim.schedule_k (Context.sim s.proto.ctx) k_watchdog
             ~delay:(max (min s.rtt 5e-4) 1e-4)
             s.watchdog_fn)
      end
    end
  end

let on_ack s (pkt : Packet.t) =
  if not s.closed then begin
    if not s.syn_acked then begin
      s.syn_acked <- true;
      let trace = Context.trace s.proto.ctx in
      if Pdq_telemetry.Trace.active trace then
        Pdq_telemetry.Trace.(
          emit trace (Flow_established { flow = s.flow.Context.id }))
    end;
    let t = now s in
    s.last_ack <- t;
    (match Payloads.ack_of pkt.Packet.payload with
    | Some ack ->
        let sample = t -. ack.Payloads.echo_ts in
        if sample > 0. then s.rtt <- (0.875 *. s.rtt) +. (0.125 *. sample);
        if ack.Payloads.cum_ack > s.acked then begin
          s.acked <- ack.Payloads.cum_ack;
          s.last_progress <- t
        end
    | None -> ());
    (match s.proto.ops.rate_of_ack s pkt with
    | Some r ->
        let fresh = max s.proto.ops.min_rate r in
        (let trace = Context.trace s.proto.ctx in
         if Pdq_telemetry.Trace.active trace && fresh <> s.rate then
           Pdq_telemetry.Trace.(
             emit trace
               (Flow_rate_set { flow = s.flow.Context.id; rate = fresh })));
        s.rate <- fresh;
        (* A pending departure was paced at the old rate; reschedule so
           a rate increase takes effect immediately. *)
        s.send_ev <- cancel_opt s s.send_ev
    | None -> ());
    if s.acked >= size s then finish_sender s
    else if s.proto.ops.quench s ~now:t then quench s
    else ensure_sending s
  end

let receiver_handle t s (pkt : Packet.t) =
  let reply kind =
    let spec = s.flow.Context.spec in
    let ack =
      Packet.make ~flow:s.flow.Context.id ~src:spec.Context.dst
        ~dst:spec.Context.src ~kind ~extra_header:t.ops.extra_header
        ~payload:
          (t.ops.ack_payload ~cum_ack:(Rx_buffer.cumulative_ack s.rx)
             ~echo_ts:pkt.Packet.sent_at pkt)
        ~now:(Context.now t.ctx) ()
    in
    Context.transmit t.ctx ~from:spec.Context.dst ack
  in
  match pkt.Packet.kind with
  | Packet.Syn -> reply Packet.Syn_ack
  | Packet.Data ->
      let before = Rx_buffer.received_bytes s.rx in
      Rx_buffer.on_data s.rx ~seq:pkt.Packet.seq ~bytes:pkt.Packet.payload_bytes;
      let delivered = Rx_buffer.received_bytes s.rx - before in
      if delivered > 0 then
        Context.record_rx t.ctx ~flow_id:s.flow.Context.id ~bytes:delivered;
      if Rx_buffer.complete s.rx then Context.complete t.ctx s.flow;
      reply Packet.Ack
  | Packet.Probe -> reply Packet.Ack
  | Packet.Term | Packet.Syn_ack | Packet.Ack -> ()

let deliver t ~node (pkt : Packet.t) =
  match Hashtbl.find_opt t.senders pkt.Packet.flow with
  | None -> ()
  | Some s -> (
      match pkt.Packet.kind with
      | Packet.Syn | Packet.Data | Packet.Probe | Packet.Term ->
          if node = s.flow.Context.spec.Context.dst then receiver_handle t s pkt
      | Packet.Syn_ack | Packet.Ack ->
          if node = s.flow.Context.spec.Context.src then on_ack s pkt)

let start_flow t (flow : Context.flow) =
  let s =
    {
      proto = t;
      flow;
      rate = 0.;
      rtt = Context.init_rtt t.ctx;
      next_seq = 0;
      acked = 0;
      syn_acked = false;
      last_syn = 0.;
      syn_wait = infinity;
      syn_retries = 0;
      last_ack = flow.Context.spec.Context.start;
      last_progress = flow.Context.spec.Context.start;
      last_tx = neg_infinity;
      send_ev = None;
      closed = false;
      send_fn = noop;
      watchdog_fn = noop;
      rx =
        Rx_buffer.create ~size:flow.Context.spec.Context.size
          ~segment:(Packet.max_payload ~scheduling_header:t.ops.extra_header)
          ();
    }
  in
  Hashtbl.replace t.senders flow.Context.id s;
  s.send_fn <- send_data s;
  s.watchdog_fn <- watchdog s;
  let sim = Context.sim t.ctx in
  let launch () =
    s.syn_wait <- rto s;
    s.last_ack <- Sim.now sim;
    (let trace = Context.trace t.ctx in
     if Pdq_telemetry.Trace.active trace then
       Pdq_telemetry.Trace.(
         emit trace (Flow_started { flow = flow.Context.id })));
    send_syn s;
    watchdog s ()
  in
  let start = flow.Context.spec.Context.start in
  if start <= Sim.now sim then launch ()
  else ignore (Sim.schedule_at_k sim k_launch ~time:start launch)
