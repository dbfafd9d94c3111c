module Int_table = Pdq_engine.Int_table

(* Stdlib's [min]/[max] on floats without the polymorphic compare: the
   same results, NaN and signed zeros included. Local to this module:
   the dev profile compiles libraries [-opaque], so a helper from
   another module would not be inlined. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

type t = {
  config : Config.t;
  switch_id : int;
  link_rate : float;
  init_rtt : float;
  trace : Pdq_telemetry.Trace.t;
  rpdq : float;
  paused_here : int option; (* [Some switch_id], shared by every pause *)
  mutable c : float;
  flows : Flow_list.t;
  mutable rtt_avg : float;
  mutable rtt_min : float;
  mutable last_accept : float;
  mutable last_accepted_flow : int;
  mutable rebuilding : bool;
  fallback_seen : float Int_table.t;
  mutable fallback_oldest : float;
      (* At or before every last-seen time in [fallback_seen]. *)
}

let create ?(trace = Pdq_telemetry.Trace.null) ~config ~switch_id ~link_rate
    ~init_rtt () =
  {
    config;
    switch_id;
    link_rate;
    init_rtt;
    trace;
    rpdq = link_rate;
    paused_here = Some switch_id;
    c = link_rate;
    flows = Flow_list.create ();
    rtt_avg = init_rtt;
    rtt_min = init_rtt;
    last_accept = neg_infinity;
    last_accepted_flow = -1;
    rebuilding = false;
    fallback_seen = Int_table.create 0;
    fallback_oldest = neg_infinity;
  }

(* Switch reboot: everything here is soft state (§3.3 — the flow list,
   RTT estimates, the rate-controller variable are all rebuilt from the
   scheduling headers of traversing packets), so a crash simply resets
   the port to its just-created state. rPDQ is configuration, not
   learned state, and survives. *)
let flush t =
  while Option.is_some (Flow_list.remove_least_critical t.flows) do
    ()
  done;
  Int_table.clear t.fallback_seen;
  t.c <- t.rpdq;
  t.rtt_avg <- t.init_rtt;
  t.rtt_min <- t.init_rtt;
  t.last_accept <- neg_infinity;
  t.last_accepted_flow <- -1;
  t.rebuilding <- true;
  if Pdq_telemetry.Trace.active t.trace then
    Pdq_telemetry.Trace.(emit t.trace (Switch_flushed { switch = t.switch_id }))

let config t = t.config
let rtt_avg t = t.rtt_avg
let available_rate t = t.c
let flow_list t = t.flows
let kappa t = Flow_list.sending_count t.flows

(* Exponential-decay weight of the average-RTT estimate. *)
let rtt_ewma = 0.125

let observe_rtt t rtt =
  if rtt > 0. then begin
    t.rtt_avg <- ((1. -. rtt_ewma) *. t.rtt_avg) +. (rtt_ewma *. rtt);
    if rtt < t.rtt_min then t.rtt_min <- rtt
  end

(* Flow-list capacity: the 2κ most critical flows (κ sending flows),
   floored so a link always remembers a few waiting flows, and capped by
   the hard memory bound M (§3.3.1). *)
let list_capacity t =
  let kappa = Flow_list.sending_count t.flows in
  Int.min t.config.Config.max_list_size
    (Int.max t.config.Config.min_list_size (2 * kappa))

(* Algorithm 2. Early Start: more critical flows that will finish within
   K RTTs do not count against the available bandwidth, up to an
   aggregate transmission-time budget of K RTTs. *)
let availbw t j ~now:_ =
  let k_budget = if t.config.Config.features.Config.early_start then t.config.Config.k_early_start else 0. in
  let x = ref 0. and a = ref 0. in
  (try
     for i = 0 to j - 1 do
       let e = Flow_list.get t.flows i in
       let rtt = fmax e.Flow_state.rtt 1e-9 in
       let ttx_rtts = e.Flow_state.expected_tx_time /. rtt in
       if ttx_rtts < k_budget && !x < k_budget then x := !x +. ttx_rtts
       else begin
         a := !a +. e.Flow_state.rate;
         if !a >= t.c then raise Exit
       end
     done
   with Exit -> ());
  if !a >= t.c then 0. else t.c -. !a

(* Who is to blame for a denial at index [j]: the most critical flow
   ahead of it whose reserved rate actually counts against the
   available bandwidth — i.e. the same walk as [availbw], stopping at
   the first flow not excused by the Early Start budget. [None] means
   no stored flow holds the capacity (the rate controller drained C,
   or j = 0): the pause is congestion, not preemption. Diagnostic
   only — it never feeds back into an allocation. *)
let blocking_flow t j =
  let k_budget =
    if t.config.Config.features.Config.early_start then
      t.config.Config.k_early_start
    else 0.
  in
  let x = ref 0. in
  let found = ref None in
  (try
     for i = 0 to j - 1 do
       let e = Flow_list.get t.flows i in
       let rtt = fmax e.Flow_state.rtt 1e-9 in
       let ttx_rtts = e.Flow_state.expected_tx_time /. rtt in
       if ttx_rtts < k_budget && !x < k_budget then x := !x +. ttx_rtts
       else if e.Flow_state.rate > 0. then begin
         found := Some e.Flow_state.flow_id;
         raise Exit
       end
     done
   with Exit -> ());
  !found

(* Spec-side Early Start budget (§3.3.2): the paper justifies granting
   overlapping rates only to flows within ~K RTTs of completion, K = 2.
   The validation monitor checks allocations against a generous
   multiple of that, independent of the configured [k_early_start] — a
   misconfigured allocator must not get to excuse itself. *)
let spec_early_start_rtts = 4.

let mature_rate_sum t =
  let rtt = fmax t.rtt_avg 1e-9 in
  let x = ref 0. and sum = ref 0. in
  Flow_list.iteri
    (fun _ (e : Flow_state.t) ->
      if Flow_state.is_sending e then begin
        let ttx_rtts = e.Flow_state.expected_tx_time /. rtt in
        if ttx_rtts < spec_early_start_rtts && !x < spec_early_start_rtts
        then x := !x +. ttx_rtts
        else sum := !sum +. e.Flow_state.rate
      end)
    t.flows;
  !sum

let paused_count t =
  Flow_list.fold
    (fun n e -> if Flow_state.is_sending e then n else n + 1)
    0 t.flows

(* Machine-checkable internal-consistency conditions: every stored
   rate is a real, bounded allocation; the list honours the
   criticality order; a flow is never simultaneously stored and in the
   RCP fallback; the rate-controller variable stays within [0, rPDQ].
   Returned as human-readable inequalities (empty = consistent). *)
let invariant_errors t =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  if not (Flow_list.is_sorted t.flows) then
    add "flow list not in criticality order";
  Flow_list.iteri
    (fun _ (e : Flow_state.t) ->
      if not (Float.is_finite e.Flow_state.rate) || e.Flow_state.rate < 0. then
        add
          (Printf.sprintf "flow %d: rate %g < 0 or not finite"
             e.Flow_state.flow_id e.Flow_state.rate);
      if e.Flow_state.rate > t.link_rate *. (1. +. 1e-9) then
        add
          (Printf.sprintf "flow %d: rate %g > link rate %g"
             e.Flow_state.flow_id e.Flow_state.rate t.link_rate);
      if Int_table.mem t.fallback_seen e.Flow_state.flow_id then
        add
          (Printf.sprintf "flow %d: both stored and in RCP fallback"
             e.Flow_state.flow_id))
    t.flows;
  if t.c < 0. || t.c > t.rpdq *. (1. +. 1e-9) then
    add (Printf.sprintf "rate controller C = %g outside [0, rPDQ = %g]" t.c t.rpdq);
  List.rev !errs

let dampening_active t ~now ~flow_id =
  flow_id <> t.last_accepted_flow
  && now -. t.last_accept < t.config.Config.dampening

(* RCP fallback (§3.3.1): flows beyond the memory bound share whatever
   capacity the stored PDQ flows leave unused. Flow membership is
   tracked by last-seen time with a 2-RTT horizon. *)
let fallback_purge t ~now =
  let horizon = 4. *. t.rtt_avg in
  (* No entry is stale while the oldest bound is within the horizon, so
     the scan runs only when one may be. *)
  if now -. t.fallback_oldest > horizon then begin
    let oldest = [| now |] in
    let stale =
      Int_table.fold
        (fun id seen acc ->
          if now -. seen > horizon then id :: acc
          else begin
            if seen < oldest.(0) then oldest.(0) <- seen;
            acc
          end)
        t.fallback_seen []
    in
    List.iter (Int_table.remove t.fallback_seen) stale;
    t.fallback_oldest <- oldest.(0)
  end

let fallback_rate t ~flow_id ~now =
  Int_table.replace t.fallback_seen flow_id now;
  fallback_purge t ~now;
  let n = Int.max 1 (Int_table.length t.fallback_seen) in
  let leftover = t.c -. Flow_list.total_rate t.flows in
  fmax 0. (leftover /. float_of_int n)

let fallback_flow_count t = Int_table.length t.fallback_seen

(* Store a new flow if the list has room or the flow outranks the least
   critical stored one; returns its index, or -1 when it must use the
   RCP fallback. *)
let try_store t (h : Header.t) ~flow_id ~now =
  let cap = list_capacity t in
  let n = Flow_list.length t.flows in
  let admissible =
    n < cap
    || n = 0
    ||
    let worst = Flow_list.get t.flows (n - 1) in
    Criticality.compare_fields h.deadline h.expected_tx_time flow_id
      worst.Flow_state.deadline worst.Flow_state.expected_tx_time
      worst.Flow_state.flow_id
    < 0
  in
  if not admissible then -1
  else begin
    let entry =
      Flow_state.create ?deadline:h.deadline ~flow_id
        ~expected_tx_time:h.expected_tx_time ~rtt:h.rtt ~now ()
    in
    ignore (Flow_list.insert t.flows entry);
    let removed_self = ref false in
    while Flow_list.length t.flows > Int.max cap 1 do
      match Flow_list.remove_least_critical t.flows with
      | Some dropped when dropped.Flow_state.flow_id = flow_id ->
          removed_self := true
      | Some _ | None -> ()
    done;
    if !removed_self then -1
    else begin
      let i = Flow_list.index_of t.flows flow_id in
      if i >= 0 && t.rebuilding then begin
        (* First flow stored since the last flush: soft state is being
           rebuilt from traversing headers. *)
        t.rebuilding <- false;
        if Pdq_telemetry.Trace.active t.trace then
          Pdq_telemetry.Trace.(
            emit t.trace (Switch_rebuilt { switch = t.switch_id }))
      end;
      i
    end
  end

let paused_elsewhere t (h : Header.t) =
  match h.pause_by with Some sid -> sid <> t.switch_id | None -> false

let pause t (h : Header.t) (e : Flow_state.t) ~victim_of =
  h.pause_by <- t.paused_here;
  h.pause_flow <- victim_of;
  e.Flow_state.pause_by <- t.paused_here

(* Algorithm 1: forward-path processing of a data/probe header. *)
let process_forward t (h : Header.t) ~flow_id ~now =
  observe_rtt t h.rtt;
  if paused_elsewhere t h then
    (* Paused by another switch: drop our state for it so its share can
       be given to other flows. *)
    ignore (Flow_list.remove t.flows flow_id)
  else begin
    let i = Flow_list.index_of t.flows flow_id in
    let i =
      if i >= 0 then begin
        Flow_state.update_from_header (Flow_list.get t.flows i) h ~now;
        Flow_list.reposition_at t.flows i
      end
      else try_store t h ~flow_id ~now
    in
    if i < 0 then begin
      (* Memory bound exceeded: degrade to RCP fair sharing. *)
      h.rate <- fmin h.rate (fallback_rate t ~flow_id ~now);
      if h.rate <= 0. then begin
        h.pause_by <- t.paused_here;
        h.pause_flow <- None
      end
    end
    else begin
      let e = Flow_list.get t.flows i in
      (* Most ports never fall back: skip hashing the id then. *)
      if Int_table.length t.fallback_seen > 0 then
        Int_table.remove t.fallback_seen flow_id;
      let w = fmin (availbw t i ~now) h.rate in
      if w > 0. then begin
        let sending = Flow_state.is_sending e in
        if (not sending) && dampening_active t ~now ~flow_id then
          (* The dampening window exists to let the last accepted flow
             ramp up unchallenged — that flow is the one holding this
             one back. *)
          pause t h e
            ~victim_of:
              (if t.last_accepted_flow >= 0 then Some t.last_accepted_flow
               else None)
        else begin
          h.pause_by <- None;
          h.pause_flow <- None;
          h.rate <- w;
          if not sending then begin
            t.last_accept <- now;
            t.last_accepted_flow <- flow_id
          end
        end
      end
      else pause t h e ~victim_of:(blocking_flow t i)
    end
  end

(* Algorithm 3: reverse-path (ACK) processing. *)
let process_reverse t (h : Header.t) ~flow_id ~now:_ =
  if paused_elsewhere t h then ignore (Flow_list.remove t.flows flow_id);
  (match h.pause_by with Some _ -> h.rate <- 0. | None -> ());
  let i = Flow_list.index_of t.flows flow_id in
  if i >= 0 then begin
    let e = Flow_list.get t.flows i in
    e.Flow_state.pause_by <- h.pause_by;
    if t.config.Config.features.Config.suppressed_probing then
      h.inter_probe_rtts <-
        fmax h.inter_probe_rtts (t.config.Config.probe_x *. float_of_int i);
    e.Flow_state.rate <- h.rate
  end

(* Stale-entry purge: a lost TERM (or a crashed sender) would otherwise
   leave a flow occupying bandwidth in the list forever. Paused flows
   probe at least every [probe_x * index] RTTs, so a generous multiple
   of the average RTT cannot evict a live flow. *)
let stale_horizon t = fmax (60. *. t.rtt_avg) 0.01

let rec has_stale t ~now i =
  i < Flow_list.length t.flows
  && (now -. (Flow_list.get t.flows i).Flow_state.last_seen > stale_horizon t
     || has_stale t ~now (i + 1))

(* Runs on every rate-controller tick, where the list is mostly empty
   or fresh: the first pass is a plain loop that boxes no float, and
   the closure and the list are built only once an entry is stale. *)
let purge_stale t ~now =
  if has_stale t ~now 0 then begin
    let horizon = stale_horizon t in
    let stale =
      Flow_list.fold
        (fun acc e ->
          if now -. e.Flow_state.last_seen > horizon then
            e.Flow_state.flow_id :: acc
          else acc)
        [] t.flows
    in
    List.iter (fun id -> ignore (Flow_list.remove t.flows id)) stale
  end

let update_rate_controller t ~queue_bytes ~now =
  purge_stale t ~now;
  (* A store-and-forward output always holds the packet in service, so
     one MTU of "queue" is not congestion; penalizing it would shave a
     permanent margin off every link. *)
  let q_bits =
    Pdq_engine.Units.bytes_to_bits
      (Int.max 0 (queue_bytes - t.config.Config.queue_allowance_bytes))
  in
  (* Drain against the min-filtered RTT: the smoothed estimate inflates
     with the very congestion the controller must remove, which would
     weaken the drain exactly when it is needed. *)
  t.c <- fmax 0. (t.rpdq -. (q_bits /. (2. *. fmax t.rtt_min 1e-9)))

(* The rate controller updates every 2 average RTTs (§3.3.1). *)
let rate_update_interval t = 2. *. t.rtt_avg

let remove_flow t flow_id ~now:_ =
  ignore (Flow_list.remove t.flows flow_id);
  Int_table.remove t.fallback_seen flow_id
