module Sim = Pdq_engine.Sim
module Packet = Pdq_net.Packet
module Int_table = Pdq_engine.Int_table

let mss = Packet.max_payload ~scheduling_header:0

let noop () = ()

(* Minimum retransmission timeout, small to mitigate incast. *)
let rto_min = 1e-3

(* Stdlib's [min]/[max] on floats without the polymorphic compare: the
   same results, NaN and signed zeros included. Local to this module:
   the dev profile compiles libraries [-opaque], so a helper from
   another module would not be inlined. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

let k_timer = Pdq_engine.Sim.Kind.register "tcp.timer"
let k_launch = Pdq_engine.Sim.Kind.register "tcp.launch"

type sender = {
  proto : t;
  flow : Context.flow;
  mutable cwnd : float;     (* bytes *)
  mutable ssthresh : float; (* bytes *)
  mutable next_seq : int;
  mutable acked : int;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover_point : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : float;
  mutable backoff : float;
  mutable retries : int; (* consecutive RTOs with no forward progress *)
  mutable syn_acked : bool;
  mutable timer : Sim.handle option;
  mutable closed : bool;
  (* Allocated once per sender: the RTO timer re-arms on every packet
     without building a closure per event. *)
  mutable timer_fn : unit -> unit;
  rx : Rx_buffer.t;
}

and t = {
  ctx : Context.t;
  senders : sender Int_table.t;
}

let now s = Context.now s.proto.ctx
let size s = s.flow.Context.spec.Context.size

let make_pkt s ~kind ?(payload_bytes = 0) ?(seq = 0) () =
  let spec = s.flow.Context.spec in
  Packet.make ~flow:s.flow.Context.id ~src:spec.Context.src ~dst:spec.Context.dst
    ~kind ~payload_bytes ~seq
    ~payload:(Payloads.Tcp_ctrl { Payloads.cum_ack = 0; echo_ts = now s })
    ~now:(now s) ()

let transmit s pkt =
  Context.transmit s.proto.ctx ~from:s.flow.Context.spec.Context.src pkt

let cancel_opt s = function
  | Some h ->
      Sim.cancel (Context.sim s.proto.ctx) h;
      None
  | None -> None

let send_syn s =
  transmit s (make_pkt s ~kind:Packet.Syn ())

let send_segment s seq =
  let payload = Int.min mss (size s - seq) in
  if payload > 0 then
    transmit s (make_pkt s ~kind:Packet.Data ~payload_bytes:payload ~seq ())

let flight s = s.next_seq - s.acked

let emit_event s ev =
  let trace = Context.trace s.proto.ctx in
  if Pdq_telemetry.Trace.active trace then Pdq_telemetry.Trace.emit trace ev

let mark_established s =
  if not s.syn_acked then begin
    s.syn_acked <- true;
    emit_event s
      (Pdq_telemetry.Trace.Flow_established { flow = s.flow.Context.id })
  end

(* Give up after this many consecutive RTOs with zero forward progress
   (dead path): by then the backoff has the timer at 64x RTO, so the
   path has been silent for a long multiple of the RTT. *)
let max_retries = 10

let abort s ~cause =
  if not s.closed then begin
    s.closed <- true;
    s.timer <- cancel_opt s s.timer;
    Context.abort s.proto.ctx s.flow ~cause
  end

let rec arm_timer s =
  s.timer <- cancel_opt s s.timer;
  if not s.closed then begin
    let delay = s.rto *. s.backoff in
    (* Jitter the backed-off retry timer so senders that lost the same
       link do not retransmit in lockstep; the initial timer stays
       deterministic (no RNG draw on the fault-free path). *)
    let delay =
      if s.backoff > 1. then
        delay *. (0.75 +. (0.5 *. Pdq_engine.Rng.float (Context.rng s.proto.ctx)))
      else delay
    in
    s.timer <-
      Some
        (Sim.schedule_k (Context.sim s.proto.ctx) k_timer ~delay s.timer_fn)
  end

(* Retransmission timeout: multiplicative backoff, window collapse,
   go-back-N from the cumulative ack point. Bounded: a sender whose
   path stays dead aborts instead of backing off forever. *)
and on_timeout s =
  s.timer <- None;
  if not s.closed then begin
    s.retries <- s.retries + 1;
    if s.retries > max_retries then
      abort s ~cause:(if s.syn_acked then "stall" else "syn")
    else begin
      if not s.syn_acked then send_syn s
      else if s.acked < size s then begin
        s.ssthresh <-
          fmax (float_of_int (flight s) /. 2.) (2. *. float_of_int mss);
        s.cwnd <- float_of_int mss;
        s.dup_acks <- 0;
        s.in_recovery <- false;
        if s.next_seq > s.acked then
          emit_event s
            (Pdq_telemetry.Trace.Flow_retransmit
               { flow = s.flow.Context.id; kind = "timeout" });
        s.next_seq <- s.acked;
        try_send s
      end;
      s.backoff <- fmin (s.backoff *. 2.) 64.;
      arm_timer s
    end
  end

and try_send s =
  if (not s.closed) && s.syn_acked then begin
    let continue = ref true in
    while !continue do
      if s.next_seq < size s && float_of_int (flight s) < s.cwnd then begin
        send_segment s s.next_seq;
        s.next_seq <- s.next_seq + Int.min mss (size s - s.next_seq)
      end
      else continue := false
    done
  end

let update_rtt s sample =
  if s.srtt = 0. then begin
    s.srtt <- sample;
    s.rttvar <- sample /. 2.
  end
  else begin
    s.rttvar <- (0.75 *. s.rttvar) +. (0.25 *. abs_float (s.srtt -. sample));
    s.srtt <- (0.875 *. s.srtt) +. (0.125 *. sample)
  end;
  s.rto <- fmax rto_min (s.srtt +. (4. *. s.rttvar))

let finish s =
  if not s.closed then begin
    s.closed <- true;
    s.timer <- cancel_opt s s.timer
  end

let on_ack s (pkt : Packet.t) =
  if not s.closed then begin
    mark_established s;
    match Payloads.ack_of pkt.Packet.payload with
    | None -> ()
    | Some ack ->
        let sample = now s -. ack.Payloads.echo_ts in
        if sample > 0. then update_rtt s sample;
        let cum = ack.Payloads.cum_ack in
        if cum > s.acked then begin
          (* New data acknowledged. *)
          let acked_bytes = cum - s.acked in
          s.acked <- cum;
          s.backoff <- 1.;
          s.retries <- 0;
          s.dup_acks <- 0;
          if s.in_recovery then begin
            if s.acked >= s.recover_point then begin
              s.in_recovery <- false;
              s.cwnd <- s.ssthresh
            end
          end
          else if s.cwnd < s.ssthresh then
            (* Slow start: one MSS per MSS acknowledged. *)
            s.cwnd <- s.cwnd +. float_of_int (Int.min acked_bytes mss)
          else
            (* Congestion avoidance. *)
            s.cwnd <- s.cwnd +. (float_of_int (mss * mss) /. s.cwnd);
          if s.next_seq < s.acked then s.next_seq <- s.acked;
          if s.acked >= size s then finish s
          else begin
            arm_timer s;
            try_send s
          end
        end
        else if pkt.Packet.kind = Packet.Ack && s.acked < size s then begin
          (* Duplicate ACK. *)
          s.dup_acks <- s.dup_acks + 1;
          if s.dup_acks = 3 && not s.in_recovery then begin
            s.ssthresh <-
              fmax (float_of_int (flight s) /. 2.) (2. *. float_of_int mss);
            s.cwnd <- s.ssthresh +. (3. *. float_of_int mss);
            s.in_recovery <- true;
            s.recover_point <- s.next_seq;
            emit_event s
              (Pdq_telemetry.Trace.Flow_retransmit
                 { flow = s.flow.Context.id; kind = "fast" });
            send_segment s s.acked (* fast retransmit *)
          end
          else if s.in_recovery then begin
            s.cwnd <- s.cwnd +. float_of_int mss;
            try_send s
          end
        end
  end

let on_syn_ack s =
  if (not s.syn_acked) && not s.closed then begin
    mark_established s;
    s.cwnd <- 2. *. float_of_int mss;
    s.backoff <- 1.;
    s.retries <- 0;
    arm_timer s;
    try_send s
  end

let receiver_handle t s (pkt : Packet.t) =
  let reply kind =
    let spec = s.flow.Context.spec in
    let ack =
      Packet.make ~flow:s.flow.Context.id ~src:spec.Context.dst
        ~dst:spec.Context.src ~kind
        ~payload:
          (Payloads.Tcp_ctrl
             {
               Payloads.cum_ack = Rx_buffer.cumulative_ack s.rx;
               echo_ts = pkt.Packet.sent_at;
             })
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
  | Packet.Probe | Packet.Term | Packet.Syn_ack | Packet.Ack -> ()

let deliver t ~node (pkt : Packet.t) =
  match Int_table.find t.senders pkt.Packet.flow with
  | exception Not_found -> ()
  | s -> (
      match pkt.Packet.kind with
      | Packet.Syn | Packet.Data | Packet.Probe | Packet.Term ->
          if node = s.flow.Context.spec.Context.dst then receiver_handle t s pkt
      | Packet.Syn_ack ->
          if node = s.flow.Context.spec.Context.src then on_syn_ack s
      | Packet.Ack ->
          if node = s.flow.Context.spec.Context.src then on_ack s pkt)

let install ~ctx () =
  let t = { ctx; senders = Int_table.create 32 } in
  Context.set_hooks ctx
    ~on_forward:(fun ~link:_ _ -> ())
    ~on_reverse:(fun ~fwd_link:_ _ -> ())
    ~deliver:(fun ~node pkt -> deliver t ~node pkt);
  t

let start_flow t (flow : Context.flow) =
  let s =
    {
      proto = t;
      flow;
      cwnd = float_of_int (2 * mss);
      ssthresh = infinity;
      next_seq = 0;
      acked = 0;
      dup_acks = 0;
      in_recovery = false;
      recover_point = 0;
      srtt = 0.;
      rttvar = 0.;
      rto = fmax rto_min (3. *. Context.init_rtt);
      backoff = 1.;
      retries = 0;
      syn_acked = false;
      timer = None;
      closed = false;
      timer_fn = noop;
      rx = Rx_buffer.create ~size:flow.Context.spec.Context.size ~segment:mss ();
    }
  in
  s.timer_fn <- (fun () -> on_timeout s);
  Int_table.replace t.senders flow.Context.id s;
  let sim = Context.sim t.ctx in
  let launch () =
    (let trace = Context.trace t.ctx in
     if Pdq_telemetry.Trace.active trace then
       Pdq_telemetry.Trace.(
         emit trace (Flow_started { flow = flow.Context.id })));
    send_syn s;
    arm_timer s
  in
  let start = flow.Context.spec.Context.start in
  if start <= Sim.now sim then launch ()
  else ignore (Sim.schedule_at_k sim k_launch ~time:start launch)
