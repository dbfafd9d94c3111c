type gilbert_elliott = {
  p_gb : float;
  p_bg : float;
  loss_good : float;
  loss_bad : float;
}

type loss_model =
  | No_loss
  | Bernoulli of float
  | Gilbert of gilbert_elliott

(* The two per-packet events every delivered packet pays — end of
   serialization and delivery after propagation — reuse two closures
   allocated once per link. The packet travels through the [queue] /
   [inflight] FIFOs instead of being captured: all deliveries on a link
   share the same constant latency, so they complete in the order they
   were scheduled and a queue carries exactly the right state. *)
type t = {
  sim : Pdq_engine.Sim.t;
  id : int;
  src : int;
  dst : int;
  rate : float;
  prop_delay : float;
  proc_delay : float;
  buffer_bytes : int;
  queue : Packet.t Queue.t;
  inflight : Packet.t Queue.t;
  mutable tx_done : unit -> unit;
  mutable deliver : unit -> unit;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable receiver : Packet.t -> unit;
  mutable loss_model : loss_model;
  mutable loss_rng : Pdq_engine.Rng.t option;
  mutable ge_bad : bool; (* Gilbert–Elliott channel state *)
  mutable up : bool;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_overflow : int;
  mutable dropped_down : int;
  mutable bytes_sent : int;
  (* (time, cumulative bytes) checkpoints for windowed utilization. *)
  mutable last_window_start : float;
  mutable last_window_bytes : int;
  mutable tap : (now:float -> bytes:int -> unit) option;
  mutable trace : Pdq_telemetry.Trace.t;
}

let noop () = ()
let k_tx = Pdq_engine.Sim.Kind.register "link.tx"
let k_deliver = Pdq_engine.Sim.Kind.register "link.deliver"

let start_transmission t =
  match Queue.peek_opt t.queue with
  | None -> t.busy <- false
  | Some pkt ->
      t.busy <- true;
      let tx = Pdq_engine.Units.tx_time ~bytes:pkt.Packet.wire_bytes ~rate:t.rate in
      ignore (Pdq_engine.Sim.schedule_k t.sim k_tx ~delay:tx t.tx_done)

let on_tx_done t =
  let pkt = Queue.pop t.queue in
  t.queued_bytes <- t.queued_bytes - pkt.Packet.wire_bytes;
  t.bytes_sent <- t.bytes_sent + pkt.Packet.wire_bytes;
  (match t.tap with
  | Some f -> f ~now:(Pdq_engine.Sim.now t.sim) ~bytes:pkt.Packet.wire_bytes
  | None -> ());
  t.delivered <- t.delivered + 1;
  Queue.push pkt t.inflight;
  let latency = t.prop_delay +. t.proc_delay in
  ignore
    (Pdq_engine.Sim.schedule_k t.sim k_deliver ~delay:latency t.deliver);
  start_transmission t

let on_deliver t = t.receiver (Queue.pop t.inflight)

let create ~sim ~id ~src ~dst ~rate ~prop_delay ~proc_delay ~buffer_bytes () =
  let t = {
    sim;
    id;
    src;
    dst;
    rate;
    prop_delay;
    proc_delay;
    buffer_bytes;
    queue = Queue.create ();
    inflight = Queue.create ();
    tx_done = noop;
    deliver = noop;
    queued_bytes = 0;
    busy = false;
    receiver = (fun _ -> failwith "Link: receiver not set");
    loss_model = No_loss;
    loss_rng = None;
    ge_bad = false;
    up = true;
    delivered = 0;
    dropped_loss = 0;
    dropped_overflow = 0;
    dropped_down = 0;
    bytes_sent = 0;
    last_window_start = 0.;
    last_window_bytes = 0;
    tap = None;
    trace = Pdq_telemetry.Trace.null;
  }
  in
  t.tx_done <- (fun () -> on_tx_done t);
  t.deliver <- (fun () -> on_deliver t);
  t

let id t = t.id
let src t = t.src
let dst t = t.dst
let rate t = t.rate
let prop_delay t = t.prop_delay
let proc_delay t = t.proc_delay
let set_receiver t f = t.receiver <- f
let receiver t = t.receiver
let queue_bytes t = t.queued_bytes

let set_loss_model t model ~rng =
  t.loss_model <- model;
  t.ge_bad <- false;
  t.loss_rng <- Some rng

let loss_model t = t.loss_model
let is_up t = t.up
let set_up t up = t.up <- up
let delivered t = t.delivered
let dropped t = t.dropped_loss + t.dropped_overflow + t.dropped_down
let dropped_loss t = t.dropped_loss
let dropped_overflow t = t.dropped_overflow
let dropped_down t = t.dropped_down
let bytes_sent t = t.bytes_sent
let on_transmit t f = t.tap <- Some f
let set_trace t trace = t.trace <- trace

let utilization t ~now =
  let window = now -. t.last_window_start in
  if window <= 0. then 0.
  else begin
    let bytes = t.bytes_sent - t.last_window_bytes in
    t.last_window_start <- now;
    t.last_window_bytes <- t.bytes_sent;
    Pdq_engine.Units.bytes_to_bits bytes /. (t.rate *. window)
  end

(* One draw of the loss process. The Gilbert–Elliott chain steps once
   per offered packet: transition first, then drop with the loss rate
   of the state the packet observes. *)
let loss_fires t =
  match (t.loss_model, t.loss_rng) with
  | No_loss, _ | _, None -> false
  | Bernoulli rate, Some rng -> rate > 0. && Pdq_engine.Rng.bool rng rate
  | Gilbert ge, Some rng ->
      let flip =
        Pdq_engine.Rng.bool rng (if t.ge_bad then ge.p_bg else ge.p_gb)
      in
      if flip then t.ge_bad <- not t.ge_bad;
      let p = if t.ge_bad then ge.loss_bad else ge.loss_good in
      p > 0. && Pdq_engine.Rng.bool rng p

let record_drop t cause =
  if Pdq_telemetry.Trace.active t.trace then
    Pdq_telemetry.Trace.emit t.trace
      (Pdq_telemetry.Trace.Packet_dropped { link = t.id; cause })

let send t pkt =
  if not t.up then begin
    t.dropped_down <- t.dropped_down + 1;
    record_drop t Pdq_telemetry.Trace.Link_down
  end
  else if loss_fires t then begin
    t.dropped_loss <- t.dropped_loss + 1;
    record_drop t Pdq_telemetry.Trace.Loss
  end
  else if t.queued_bytes + pkt.Packet.wire_bytes > t.buffer_bytes then begin
    t.dropped_overflow <- t.dropped_overflow + 1 (* FIFO tail drop *);
    record_drop t Pdq_telemetry.Trace.Overflow
  end
  else begin
    Queue.push pkt t.queue;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.wire_bytes;
    if not t.busy then start_transmission t
  end
