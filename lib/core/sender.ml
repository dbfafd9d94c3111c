type size_info = Known | Estimated of int

type t = {
  flow_id : int;
  mutable size_bytes : int;
  deadline : float option;
  size_info : size_info;
  trace : Pdq_telemetry.Trace.t;
  mutable max_rate : float;
  mutable rate : float;
  mutable paused_by : int option;
  mutable expected_tx_time : float;
  mutable inter_probe_rtts : float;
  mutable rtt : float;
  mutable rtt_min : float;
  mutable remaining : int;
}

(* Goodput per line-rate bit of a full PDQ data packet: its payload
   (MTU less IP/TCP and scheduling headers) over its MTU. *)
let efficiency =
  let module Packet = Pdq_net.Packet in
  float_of_int (Packet.max_payload ~scheduling_header:Header.wire_bytes)
  /. float_of_int Packet.mtu

let ttx_of ~remaining ~max_rate =
  Pdq_engine.Units.bytes_to_bits remaining /. max (max_rate *. efficiency) 1.

(* Without flow-size knowledge (§5.6), the advertised criticality is
   the estimated size — one quantum more than the bytes already sent,
   refreshed only at quantum boundaries so switches are not thrashed. *)
let estimated_ttx t quantum =
  let sent = max 0 (t.size_bytes - t.remaining) in
  let estimate = ((sent / max 1 quantum) + 1) * quantum in
  ttx_of ~remaining:estimate ~max_rate:t.max_rate

let create ?deadline ?(size_info = Known)
    ?(trace = Pdq_telemetry.Trace.null) ~flow_id ~size_bytes ~max_rate
    ~init_rtt () =
  let t =
    {
      flow_id;
      size_bytes;
      deadline;
      size_info;
      trace;
      max_rate;
      rate = 0.;
      paused_by = None;
      expected_tx_time = ttx_of ~remaining:size_bytes ~max_rate;
      inter_probe_rtts = 1.;
      rtt = init_rtt;
      rtt_min = init_rtt;
      remaining = size_bytes;
    }
  in
  (match size_info with
  | Known -> ()
  | Estimated q -> t.expected_tx_time <- estimated_ttx t q);
  t

let flow_id t = t.flow_id
let deadline t = t.deadline
let size_bytes t = t.size_bytes
let rate t = t.rate
let paused_by t = t.paused_by
let is_paused t = t.rate <= 0.
let rtt t = t.rtt
let expected_tx_time t = t.expected_tx_time
let inter_probe_interval t = max 1. t.inter_probe_rtts *. t.rtt
let remaining_bytes t = t.remaining

let refresh_ttx t =
  t.expected_tx_time <-
    (match t.size_info with
    | Known ->
        ttx_of ~remaining:t.remaining ~max_rate:t.max_rate
    | Estimated q -> estimated_ttx t q)

(* M-PDQ load rebalancing: a subflow's assigned size changes as unsent
   bytes move between subflows; [acked] is the bytes already delivered
   on this subflow. *)
let set_size t ~size ~acked =
  t.size_bytes <- size;
  t.remaining <- max 0 (size - acked);
  refresh_ttx t

let make_header t ~t:_ =
  Header.make ?deadline:t.deadline ~rate:t.max_rate
    ~expected_tx_time:t.expected_tx_time ~rtt:t.rtt ()

let on_ack t (h : Header.t) ~acked_bytes ~rtt_sample ~now:_ =
  (match rtt_sample with
  | Some sample when sample > 0. ->
      t.rtt <- (0.875 *. t.rtt) +. (0.125 *. sample);
      if sample < t.rtt_min then t.rtt_min <- sample
  | Some _ | None -> ());
  t.remaining <- max 0 (t.size_bytes - acked_bytes);
  refresh_ttx t;
  let was_paused = t.paused_by and old_rate = t.rate in
  t.paused_by <- h.pause_by;
  t.rate <- (if h.pause_by <> None then 0. else min h.rate t.max_rate);
  if h.inter_probe_rtts > 0. then t.inter_probe_rtts <- h.inter_probe_rtts;
  if Pdq_telemetry.Trace.active t.trace then begin
    let open Pdq_telemetry.Trace in
    match (was_paused, t.paused_by) with
    | None, Some by ->
        emit t.trace
          (Flow_paused { flow = t.flow_id; by; preempted_by = h.pause_flow })
    | Some _, None ->
        emit t.trace (Flow_resumed { flow = t.flow_id; rate = t.rate })
    | _ ->
        if t.rate <> old_rate then
          emit t.trace (Flow_rate_set { flow = t.flow_id; rate = t.rate })
  end

(* Rule 3 measures the control-loop latency a paused flow needs to get
   unpaused — the min-filtered RTT, not the smoothed one, which can be
   badly inflated by transient queueing and would kill flows that are
   a few hundred microseconds from making it. *)
let should_terminate t ~now =
  match t.deadline with
  | None -> false
  | Some d ->
      t.remaining > 0
      && (now > d
         || now +. t.expected_tx_time > d
         || (is_paused t && now +. t.rtt_min > d))

let finished t = t.remaining = 0
