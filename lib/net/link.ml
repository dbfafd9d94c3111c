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
   allocated once per link. The packet is not captured: it waits in the
   link's ring instead. All deliveries on a link share the same
   constant latency, so they complete in the order they were scheduled,
   and one FIFO carries exactly the right state.

   The ring holds every packet the link has accepted, oldest first: the
   first [flying] from [head] on are in propagation, the rest wait for
   the transmitter, so a packet leaves the output queue by joining the
   in-flight span, without moving. The ring starts with no slots, so an
   idle link costs no buffer; it grows by doubling and once grown
   allocates nothing. The last element of [buf] is not a slot: it holds
   the first packet the link ever accepted, which fills every new array
   and overwrites every delivered slot: apart from that filler, the
   link keeps no delivered packet alive. *)
type t = {
  sim : Pdq_engine.Sim.t;
  id : int;
  src : int;
  dst : int;
  rate : float;
  prop_delay : float;
  proc_delay : float;
  buffer_bytes : int;
  latency : float; (* [prop_delay +. proc_delay], boxed once *)
  mutable tx_bytes : int; (* size of the last packet sent, or -1 *)
  mutable tx_delay : float; (* its serialization delay, boxed once *)
  mutable buf : Packet.t array;
  mutable head : int;
  mutable flying : int;
  mutable held : int;
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

(* Index in [buf] of the [k]-th oldest packet held. *)
let slot t k =
  let i = t.head + k and cap = Array.length t.buf - 1 in
  if i >= cap then i - cap else i

(* Append [pkt] to the ring, growing it when every slot is taken. *)
let hold t pkt =
  let cap = Array.length t.buf - 1 in
  if t.held >= cap then begin
    let filler = if cap < 0 then pkt else t.buf.(cap) in
    let buf = Array.make (Int.max 8 (2 * cap) + 1) filler in
    if cap > 0 then begin
      let first = cap - t.head in
      Array.blit t.buf t.head buf 0 first;
      Array.blit t.buf 0 buf first t.head
    end;
    t.buf <- buf;
    t.head <- 0
  end;
  t.buf.(slot t t.held) <- pkt;
  t.held <- t.held + 1

let noop () = ()
let k_tx = Pdq_engine.Sim.Kind.register "link.tx"
let k_deliver = Pdq_engine.Sim.Kind.register "link.deliver"

(* [Units.tx_time] returns a fresh boxed float, 2 words a call. The
   delay is computed only when a packet's size differs from the last
   one's; otherwise the stored box is passed again. *)
let start_transmission t =
  if t.flying = t.held then t.busy <- false
  else begin
    let bytes = t.buf.(slot t t.flying).Packet.wire_bytes in
    t.busy <- true;
    if bytes <> t.tx_bytes then begin
      t.tx_bytes <- bytes;
      t.tx_delay <- Pdq_engine.Units.tx_time ~bytes ~rate:t.rate
    end;
    Pdq_engine.Sim.schedule_fixed_k t.sim k_tx ~delay:t.tx_delay t.tx_done
  end

let on_tx_done t =
  let pkt = t.buf.(slot t t.flying) in
  t.flying <- t.flying + 1;
  t.queued_bytes <- t.queued_bytes - pkt.Packet.wire_bytes;
  t.bytes_sent <- t.bytes_sent + pkt.Packet.wire_bytes;
  (match t.tap with
  | Some f -> f ~now:(Pdq_engine.Sim.now t.sim) ~bytes:pkt.Packet.wire_bytes
  | None -> ());
  t.delivered <- t.delivered + 1;
  Pdq_engine.Sim.schedule_fixed_k t.sim k_deliver ~delay:t.latency t.deliver;
  start_transmission t

let on_deliver t =
  let pkt = t.buf.(t.head) and cap = Array.length t.buf - 1 in
  t.buf.(t.head) <- t.buf.(cap);
  t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
  t.flying <- t.flying - 1;
  t.held <- t.held - 1;
  t.receiver pkt

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
    latency = prop_delay +. proc_delay;
    tx_bytes = -1;
    tx_delay = 0.;
    buf = [||];
    head = 0;
    flying = 0;
    held = 0;
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
let buffer_bytes t = t.buffer_bytes
let set_receiver t f = t.receiver <- f
let receiver t = t.receiver
let queue_bytes t = t.queued_bytes

let set_loss_model t model ~rng =
  t.loss_model <- model;
  t.ge_bad <- false;
  t.loss_rng <- Some rng

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
    hold t pkt;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.wire_bytes;
    if not t.busy then start_transmission t
  end
