module Sim = Pdq_engine.Sim
module Units = Pdq_engine.Units
module Packet = Pdq_net.Packet
module Topology = Pdq_net.Topology
module Int_table = Pdq_engine.Int_table

type 'x sender = {
  ctx : Context.t;
  ops : 'x ops;
  id : int;
  src : int;
  dst : int;
  flow : Context.flow option;
  mutable size : int;
  mutable rate : float;
  mutable rtt : float;
  mutable next_seq : int;
  mutable sent_hi : int; (* high-water mark of next_seq (go-back-N rewinds) *)
  mutable acked : int;
  mutable syn_acked : bool;
  mutable last_syn : float;
  mutable syn_wait : float; (* current (backed-off) SYN retransmit delay *)
  mutable syn_retries : int;
  mutable last_ack : float; (* last time any ACK arrived (liveness) *)
  mutable last_progress : float;
  mutable last_tx : float; (* departure time of the previous data packet *)
  mutable send_ev : Sim.handle option;
  mutable closed : bool;
  mutable terminated : bool;
  (* Allocated once per sender so the pacing and watchdog loops
     reschedule without building a closure per event. *)
  mutable send_fn : unit -> unit;
  mutable watchdog_fn : unit -> unit;
  rx : Rx_buffer.t;
  ext : 'x;
}

and 'x ops = {
  k_send : Sim.Kind.t;
  k_watchdog : Sim.Kind.t;
  k_launch : Sim.Kind.t;
  extra_header : int;
  payload : 'x sender -> Packet.payload;
  reply : 'x sender -> Packet.t -> Payloads.ack_info -> Packet.payload;
  on_ack : 'x sender -> Packet.t -> Payloads.ack_info -> now:float -> unit;
  should_terminate : 'x sender -> now:float -> bool;
  tick : 'x sender -> now:float -> float;
  sync : 'x sender -> unit;
  on_rx : 'x sender -> bytes:int -> unit;
}

type 'x t = {
  context : Context.t;
  protocol : 'x ops;
  senders : 'x sender Int_table.t;
}

let create ctx ops =
  { context = ctx; protocol = ops; senders = Int_table.create 32 }

let noop () = ()

(* Stdlib's [min]/[max] on floats without the polymorphic compare: the
   same results, NaN and signed zeros included. Local to this module:
   the dev profile compiles libraries [-opaque], so a helper from
   another module would not be inlined. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

(* Watchdog hardening: bounded, backed-off retransmission so a flow on
   a dead path reaches a terminal [Aborted] outcome instead of
   retrying forever. The jitter desynchronizes retry storms after a
   shared failure; it is drawn from the run's RNG only on the retry
   path, so fault-free runs consume no extra randomness and stay
   bit-for-bit reproducible. *)
let max_syn_retries = 8
let backoff_cap = 6 (* exponent cap: 64x *)
let abort_after = 1.0 (* s without any ACK before declaring the path dead *)

let jittered rng d = d *. (0.75 +. (0.5 *. Pdq_engine.Rng.float rng))

let nic_rate topo node =
  List.fold_left
    (fun acc (_, l) -> fmax acc (Pdq_net.Link.rate (Topology.link topo l)))
    0.
    (Topology.links_from topo node)

let now s = Context.now s.ctx
let rto s = fmax (3. *. s.rtt) 1e-3
let max_payload s = Packet.max_payload ~scheduling_header:s.ops.extra_header

let make_pkt s ~kind ?(payload_bytes = 0) ?(seq = 0) () =
  Packet.make ~flow:s.id ~src:s.src ~dst:s.dst ~kind ~payload_bytes ~seq
    ~extra_header:s.ops.extra_header ~payload:(s.ops.payload s) ~now:(now s) ()

let transmit s pkt = Context.transmit s.ctx ~from:s.src pkt

let send_syn s =
  s.last_syn <- now s;
  transmit s (make_pkt s ~kind:Packet.Syn ())

let send_term s = transmit s (make_pkt s ~kind:Packet.Term ())

let cancel_opt s = function
  | Some h ->
      Sim.cancel (Context.sim s.ctx) h;
      None
  | None -> None

let close s =
  s.closed <- true;
  s.send_ev <- cancel_opt s s.send_ev

let finish s =
  if not s.closed then begin
    close s;
    send_term s;
    s.ops.sync s
  end

(* Closing before completion: a deliberate termination ([cause] None:
   PDQ Early Termination, D3 quenching) or a watchdog abort. Both mark
   the sender terminated, so an M-PDQ coordinator treats the subflow as
   closed rather than runnable, and best-effort TERM the switches to
   free their state. *)
let stop s cause =
  if not s.closed then begin
    close s;
    s.terminated <- true;
    send_term s;
    (match (s.flow, cause) with
    | Some flow, None ->
        flow.Context.terminated <- true;
        Context.flow_closed s.ctx flow
    | Some flow, Some cause -> Context.abort s.ctx flow ~cause
    | None, Some cause -> Context.record_fault s.ctx ("abort.subflow." ^ cause)
    | None, None -> ());
    s.ops.sync s
  end

let terminate s = stop s None

(* Pacing interval at the current rate, recomputed whenever the rate
   changes. Bounded so that a transiently tiny grant cannot park the
   sender for many milliseconds: PDQ's rate controller then pauses a
   flow whose bounded interval still overshoots, and RCP/D3 feedback
   corrects it within an RTT. *)
let pacing_interval s ~wire_bytes =
  if s.rate <= 0. then infinity
  else
    fmin
      (Units.tx_time ~bytes:wire_bytes ~rate:s.rate)
      (fmax (4. *. s.rtt) 2e-3)

(* Paced data transmission: one packet per event, the next scheduled a
   serialization interval (at the current rate) later. *)
let send_data s () =
  s.send_ev <- None;
  if (not s.closed) && s.rate > 0. && s.next_seq < s.size then begin
    let payload = Int.min (max_payload s) (s.size - s.next_seq) in
    let pkt =
      make_pkt s ~kind:Packet.Data ~payload_bytes:payload ~seq:s.next_seq ()
    in
    transmit s pkt;
    s.next_seq <- s.next_seq + payload;
    if s.next_seq > s.sent_hi then s.sent_hi <- s.next_seq;
    s.last_tx <- now s;
    if s.next_seq < s.size then begin
      let interval = pacing_interval s ~wire_bytes:pkt.Packet.wire_bytes in
      s.send_ev <-
        Some
          (Sim.schedule_k (Context.sim s.ctx) s.ops.k_send ~delay:interval
             s.send_fn)
    end
  end

let ensure_sending s =
  if
    (not s.closed)
    && Option.is_none s.send_ev
    && s.rate > 0.
    && s.next_seq < s.size
  then begin
    (* Next departure honours the pacing of the previous packet at the
       *current* rate — a rate increase moves it earlier. *)
    let interval =
      pacing_interval s ~wire_bytes:(max_payload s + Packet.header_bytes)
    in
    let delay = fmax 0. (s.last_tx +. interval -. now s) in
    s.send_ev <-
      Some (Sim.schedule_k (Context.sim s.ctx) s.ops.k_send ~delay s.send_fn)
  end

(* Watchdog: the protocol's termination check, SYN retransmission
   (bounded, with exponential backoff and jitter once retries mount),
   a liveness abort when no ACK of any kind arrives for [abort_after],
   and go-back-N on stalled cumulative acks while the rate is
   positive. *)
let watchdog s () =
  if not s.closed then begin
    let t = now s in
    if s.ops.should_terminate s ~now:t then terminate s
    else begin
      if (not s.syn_acked) && t -. s.last_syn > s.syn_wait then begin
        if s.syn_retries >= max_syn_retries then stop s (Some "syn")
        else begin
          s.syn_retries <- s.syn_retries + 1;
          let expo = Int.min s.syn_retries backoff_cap in
          s.syn_wait <-
            jittered (Context.rng s.ctx) (rto s *. float_of_int (1 lsl expo));
          send_syn s
        end
      end
      else if s.syn_acked && s.acked < s.size && t -. s.last_ack > abort_after
      then
        (* Even a paused PDQ flow hears probe ACKs every few RTTs; total
           ACK silence this long means the path (or our switch state)
           is gone for good. *)
        stop s (Some "stall")
      else if
        s.syn_acked && s.acked < s.size
        && t -. s.last_progress > rto s
        && s.rate > 0.
      then begin
        (let trace = Context.trace s.ctx in
         if Pdq_telemetry.Trace.active trace && s.next_seq > s.acked then
           Pdq_telemetry.Trace.(
             emit trace (Flow_retransmit { flow = s.id; kind = "watchdog" })));
        s.next_seq <- s.acked;
        s.last_progress <- t;
        ensure_sending s
      end;
      if not s.closed then begin
        let delay = s.ops.tick s ~now:t in
        ignore
          (Sim.schedule_k (Context.sim s.ctx) s.ops.k_watchdog ~delay
             s.watchdog_fn)
      end
    end
  end

let on_ack s (pkt : Packet.t) =
  if not s.closed then begin
    if not s.syn_acked then begin
      s.syn_acked <- true;
      let trace = Context.trace s.ctx in
      if Pdq_telemetry.Trace.active trace then
        Pdq_telemetry.Trace.(emit trace (Flow_established { flow = s.id }))
    end;
    let t = now s in
    s.last_ack <- t;
    match Payloads.ack_of pkt.Packet.payload with
    | None -> ()
    | Some ack ->
        s.ops.on_ack s pkt ack ~now:t;
        if ack.Payloads.cum_ack > s.acked then begin
          s.acked <- ack.Payloads.cum_ack;
          s.last_progress <- t
        end;
        (* A pending departure was paced at the old rate; reschedule so
           a rate increase takes effect immediately. *)
        s.send_ev <- cancel_opt s s.send_ev;
        if s.acked >= s.size then finish s
        else if s.ops.should_terminate s ~now:t then terminate s
        else ensure_sending s;
        s.ops.sync s
  end

(* Receiver side: reassemble, record delivered bytes, complete the
   flow, and answer every SYN, DATA and probe with an ACK carrying the
   cumulative ack and the echoed departure time. *)
let reply s (pkt : Packet.t) kind =
  let cum_ack = Rx_buffer.cumulative_ack s.rx in
  let ack = { Payloads.cum_ack; echo_ts = pkt.Packet.sent_at } in
  Context.transmit s.ctx ~from:s.dst
    (Packet.make ~flow:s.id ~src:s.dst ~dst:s.src ~kind
       ~extra_header:s.ops.extra_header ~payload:(s.ops.reply s pkt ack)
       ~now:(now s) ())

let receive s (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Syn -> reply s pkt Packet.Syn_ack
  | Packet.Probe -> reply s pkt Packet.Ack
  | Packet.Data ->
      let before = Rx_buffer.received_bytes s.rx in
      Rx_buffer.on_data s.rx ~seq:pkt.Packet.seq
        ~bytes:pkt.Packet.payload_bytes;
      let delivered = Rx_buffer.received_bytes s.rx - before in
      if delivered > 0 then begin
        Context.record_rx s.ctx ~flow_id:s.id ~bytes:delivered;
        s.ops.on_rx s ~bytes:delivered
      end;
      (match s.flow with
      | Some flow when Rx_buffer.complete s.rx -> Context.complete s.ctx flow
      | Some _ | None -> ());
      reply s pkt Packet.Ack
  | Packet.Term | Packet.Syn_ack | Packet.Ack -> ()

let deliver ep ~node (pkt : Packet.t) =
  match Int_table.find ep.senders pkt.Packet.flow with
  | exception Not_found -> ()
  | s -> (
      match pkt.Packet.kind with
      | Packet.Syn | Packet.Data | Packet.Probe | Packet.Term ->
          if node = s.dst then receive s pkt
      | Packet.Syn_ack | Packet.Ack -> if node = s.src then on_ack s pkt)

let launch ep ~id ~src ~dst ~size ~capacity ~start ~flow ext =
  let s =
    {
      ctx = ep.context;
      ops = ep.protocol;
      id;
      src;
      dst;
      flow;
      size;
      rate = 0.;
      rtt = Context.init_rtt;
      next_seq = 0;
      sent_hi = 0;
      acked = 0;
      syn_acked = false;
      last_syn = 0.;
      syn_wait = infinity; (* set to the live RTO at launch *)
      syn_retries = 0;
      last_ack = start;
      last_progress = start;
      last_tx = neg_infinity;
      send_ev = None;
      closed = false;
      terminated = false;
      send_fn = noop;
      watchdog_fn = noop;
      rx =
        Rx_buffer.create ~capacity ~size
          ~segment:
            (Packet.max_payload ~scheduling_header:ep.protocol.extra_header)
          ();
      ext;
    }
  in
  Int_table.replace ep.senders id s;
  s.send_fn <- send_data s;
  s.watchdog_fn <- watchdog s;
  let sim = Context.sim s.ctx in
  let go () =
    s.syn_wait <- rto s;
    s.last_ack <- now s;
    (let trace = Context.trace s.ctx in
     if Pdq_telemetry.Trace.active trace then
       Pdq_telemetry.Trace.(emit trace (Flow_started { flow = s.id })));
    send_syn s;
    watchdog s ()
  in
  if start <= Sim.now sim then go ()
  else ignore (Sim.schedule_at_k sim s.ops.k_launch ~time:start go);
  s

(* Explicit-rate senders (RCP, D3). *)

type explicit = { nic : float }

let k_send = Sim.Kind.register "rate.send"
let k_watchdog = Sim.Kind.register "rate.watchdog"
let k_launch = Sim.Kind.register "rate.launch"

let explicit_rate ~extra_header ~min_rate ~payload ~reply ~grant ~quench :
    explicit ops =
  {
    k_send;
    k_watchdog;
    k_launch;
    extra_header;
    payload;
    reply;
    on_ack =
      (fun s pkt ack ~now ->
        let sample = now -. ack.Payloads.echo_ts in
        if sample > 0. then s.rtt <- (0.875 *. s.rtt) +. (0.125 *. sample);
        match grant s pkt with
        | Some r ->
            let fresh = fmax min_rate r in
            (let trace = Context.trace s.ctx in
             if Pdq_telemetry.Trace.active trace && fresh <> s.rate then
               Pdq_telemetry.Trace.(
                 emit trace (Flow_rate_set { flow = s.id; rate = fresh })));
            s.rate <- fresh
        | None -> ());
    should_terminate = quench;
    (* Senders refresh their rate request every RTT with a header-only
       probe whenever data pacing is slower than that: requests ride on
       data, so a throttled flow would otherwise miss every allocation
       interval and starve. *)
    tick =
      (fun s ~now ->
        if s.syn_acked && s.acked < s.size && now -. s.last_tx > s.rtt then
          transmit s (make_pkt s ~kind:Packet.Probe ());
        fmax (fmin s.rtt 5e-4) 1e-4);
    sync = (fun _ -> ());
    on_rx = (fun _ ~bytes:_ -> ());
  }

let start_flow ep (flow : Context.flow) =
  let { Context.src; dst; size; start; _ } = flow.Context.spec in
  let nic = nic_rate (Context.topo ep.context) src in
  ignore
    (launch ep ~id:flow.Context.id ~src ~dst ~size ~capacity:size ~start
       ~flow:(Some flow) { nic })
