module Trace = Pdq_telemetry.Trace

type phase =
  | Handshake
  | Sending
  | Paused of { by : int; preempted_by : int option }
  | Recovery of { kind : string; fault_induced : bool }

type span = { phase : phase; t0 : float; t1 : float }

let duration s = s.t1 -. s.t0

type outcome =
  | Completed of { fct : float }
  | Terminated
  | Aborted of { cause : string }
  | Unfinished

type flow_spans = {
  flow : int;
  admitted : float option;
  started : float option;
  finished : float option;
  size : int option;
  deadline : float option;
  spans : span list;
  outcome : outcome;
  retransmits : int;
  peak_rate : float;
  rx_bytes : int;
}

type error = { at : float; flow : int; message : string }

type t = { flows : flow_spans list; errors : error list }

(* ------------------------------------------------------------------ *)
(* Per-flow state machine.

   The reconstructor is strict: an event sequence the simulator cannot
   produce (paused before established, resumed while sending, two
   completions) marks the flow malformed and records the offending
   event instead of guessing a lifecycle for it.  Two tolerated
   irregularities, both of which the simulator does produce: a flow
   may start without an admission record (M-PDQ subflows are created
   by the transport, not the experiment), and events may trail in
   after completion (ACKs already in flight when the receiver finished
   the transfer). *)

type state =
  | Waiting
  | Handshaking
  | In_sending
  | In_paused of { by : int; preempted_by : int option }
  (* [epoch_start] is the start of the sending epoch the loss happened
     in, kept so the fault-induced classification can look back past
     the retransmit itself. *)
  | In_recovery of { kind : string; epoch_start : float }
  | Finished

type acc = {
  id : int;
  mutable admitted_at : float option;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable size_bytes : int option;
  mutable deadline_abs : float option;
  mutable state : state;
  mutable phase_start : float;
  mutable spans_rev : span list;
  mutable result : outcome;
  mutable rtx : int;
  mutable peak : float;
  mutable rx : int;
  mutable malformed : bool;
}

let fresh id =
  {
    id;
    admitted_at = None;
    started_at = None;
    finished_at = None;
    size_bytes = None;
    deadline_abs = None;
    state = Waiting;
    phase_start = 0.;
    spans_rev = [];
    result = Unfinished;
    rtx = 0;
    peak = 0.;
    rx = 0;
    malformed = false;
  }

let push a ~t phase =
  if t > a.phase_start then
    a.spans_rev <- { phase; t0 = a.phase_start; t1 = t } :: a.spans_rev

(* Fault-family events: injected faults, fault-handling side effects,
   and drops caused by dead links or stale routes.  Congestion drops
   (Loss / Overflow) are the scheduler's normal weather and do not make
   a recovery window "fault-induced". *)
let is_fault_event = function
  | Trace.Fault _ | Trace.Switch_flushed _ -> true
  | Trace.Packet_dropped { cause = Trace.Link_down | Trace.Stale_route; _ } ->
      true
  | _ -> false

let reconstruct events =
  let fault_times =
    List.filter_map
      (fun (t, ev) -> if is_fault_event ev then Some t else None)
      events
  in
  let fault_in a b = List.exists (fun t -> a <= t && t <= b) fault_times in
  let flows : (int, acc) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let get id =
    match Hashtbl.find_opt flows id with
    | Some a -> a
    | None ->
        let a = fresh id in
        Hashtbl.add flows id a;
        order := id :: !order;
        a
  in
  let errors = ref [] in
  let fail a ~t msg =
    a.malformed <- true;
    errors := { at = t; flow = a.id; message = msg } :: !errors
  in
  let close_recovery a ~t ~kind ~epoch_start =
    push a ~t
      (Recovery { kind; fault_induced = fault_in epoch_start t })
  in
  let finish a ~t result =
    (match a.state with
    | Waiting -> fail a ~t "finished before starting"
    | Handshaking -> push a ~t Handshake
    | In_sending -> push a ~t Sending
    | In_paused { by; preempted_by } -> push a ~t (Paused { by; preempted_by })
    | In_recovery { kind; epoch_start } ->
        close_recovery a ~t ~kind ~epoch_start
    | Finished -> fail a ~t "finished twice");
    if not a.malformed then begin
      a.state <- Finished;
      a.result <- result;
      a.finished_at <- Some t
    end
  in
  let last_t = ref 0. in
  List.iter
    (fun (t, ev) ->
      last_t := max !last_t t;
      match ev with
      | Trace.Sweep_task _ | Trace.Switch_flushed _ | Trace.Switch_rebuilt _
      | Trace.Packet_dropped _ | Trace.Fault _ ->
          ()
      | Trace.Flow_admitted { flow; size; deadline; _ } ->
          let a = get flow in
          if a.malformed then ()
          else if a.admitted_at <> None then fail a ~t "admitted twice"
          else if a.state <> Waiting then fail a ~t "admitted after starting"
          else begin
            a.admitted_at <- Some t;
            a.size_bytes <- Some size;
            a.deadline_abs <- deadline
          end
      | Trace.Flow_started { flow } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else if a.state <> Waiting then fail a ~t "started twice"
          else begin
            a.started_at <- Some t;
            a.state <- Handshaking;
            a.phase_start <- t
          end
      | Trace.Flow_established { flow } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else if a.state <> Handshaking then
            fail a ~t "established while not handshaking"
          else begin
            push a ~t Handshake;
            a.state <- In_sending;
            a.phase_start <- t
          end
      | Trace.Flow_paused { flow; by; preempted_by } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else begin
            (match a.state with
            | In_sending -> push a ~t Sending
            | In_recovery { kind; epoch_start } ->
                close_recovery a ~t ~kind ~epoch_start
            | Waiting | Handshaking ->
                fail a ~t "paused before established"
            | In_paused _ -> fail a ~t "paused while paused"
            | Finished -> assert false);
            if not a.malformed then begin
              a.state <- In_paused { by; preempted_by };
              a.phase_start <- t
            end
          end
      | Trace.Flow_resumed { flow; rate } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else begin
            (match a.state with
            | In_paused { by; preempted_by } ->
                push a ~t (Paused { by; preempted_by })
            | _ -> fail a ~t "resumed while not paused");
            if not a.malformed then begin
              a.peak <- max a.peak rate;
              a.state <- In_sending;
              a.phase_start <- t
            end
          end
      | Trace.Flow_rate_set { flow; rate } ->
          let a = get flow in
          if not (a.malformed || a.state = Finished) then
            a.peak <- max a.peak rate
      | Trace.Flow_rx { flow; bytes } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else begin
            a.rx <- a.rx + bytes;
            (* Receiver progress closes an open loss-recovery window. *)
            match a.state with
            | In_recovery { kind; epoch_start } ->
                close_recovery a ~t ~kind ~epoch_start;
                if not a.malformed then begin
                  a.state <- In_sending;
                  a.phase_start <- t
                end
            | _ -> ()
          end
      | Trace.Flow_retransmit { flow; kind } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else begin
            a.rtx <- a.rtx + 1;
            match a.state with
            | In_sending ->
                let epoch_start = a.phase_start in
                push a ~t Sending;
                a.state <- In_recovery { kind; epoch_start };
                a.phase_start <- t
            | In_recovery _ ->
                (* Repeated timeout: the open window just keeps its
                   original kind and epoch. *)
                ()
            | In_paused _ ->
                (* A paused sender's watchdog can still kick its
                   go-back-N; the wall-clock stays attributed to the
                   pause, which is what actually holds the flow back. *)
                ()
            | Waiting | Handshaking ->
                fail a ~t "retransmit before established"
            | Finished -> assert false
          end
      | Trace.Flow_completed { flow; fct } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else finish a ~t (Completed { fct })
      | Trace.Flow_terminated { flow } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else finish a ~t Terminated
      | Trace.Flow_aborted { flow; cause } ->
          let a = get flow in
          if a.malformed || a.state = Finished then ()
          else finish a ~t (Aborted { cause }))
    events;
  (* Close out flows the trace left mid-flight at the last timestamp,
     so their partial spans are still inspectable. *)
  let finalize a =
    let t = !last_t in
    (match a.state with
    | Waiting | Finished -> ()
    | Handshaking -> push a ~t Handshake
    | In_sending -> push a ~t Sending
    | In_paused { by; preempted_by } -> push a ~t (Paused { by; preempted_by })
    | In_recovery { kind; epoch_start } ->
        close_recovery a ~t ~kind ~epoch_start);
    {
      flow = a.id;
      admitted = a.admitted_at;
      started = a.started_at;
      finished = a.finished_at;
      size = a.size_bytes;
      deadline = a.deadline_abs;
      spans = List.rev a.spans_rev;
      outcome = a.result;
      retransmits = a.rtx;
      peak_rate = a.peak;
      rx_bytes = a.rx;
    }
  in
  let ids = List.sort compare (List.rev !order) in
  let malformed id =
    List.exists (fun (e : error) -> e.flow = id) !errors
  in
  let flows =
    List.filter_map
      (fun id ->
        if malformed id then None else Some (finalize (Hashtbl.find flows id)))
      ids
  in
  { flows; errors = List.rev !errors }
