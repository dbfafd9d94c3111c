module Trace = Pdq_telemetry.Trace
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Topology = Pdq_net.Topology
module Link = Pdq_net.Link

(* Per-flow soft state reconstructed from the trace stream. [rates] is
   the sender-side granted-rate history, newest first; PDQ-family
   senders are the only emitters of rate events, so for RCP/D3/TCP runs
   the capacity sweep is trivially empty. *)
type fmeta = {
  size : int;
  deadline_abs : float option;
  mutable rx : int;
  mutable rx_overflow : bool;
  mutable last_activity : float; (* latest rx or rate event *)
  mutable completed_at : float option;
  mutable terminated_at : float option;
  mutable rates : (float * float) list;
}

(* Tolerances. [es_window]: longest tolerated sender-side link
   oversubscription burst. [capacity_slack]: relative headroom over the
   line rate before a burst counts. [rtt_slack]: grace applied to the
   Early Termination feasibility test. [stale_grace]: how long an
   incomplete flow's last granted rate keeps counting against link
   capacity after its last rx/rate event. [max_violations] caps the
   report list. *)
let es_window = 0.05
let capacity_slack = 0.02
let rtt_slack = 2e-3
let stale_grace = 5e-3
let max_violations = 200

type t = {
  streak_limit : int;
  flows : (int, fmeta) Hashtbl.t;
  mutable streaming : Report.violation list; (* newest first *)
  mutable count : int;
  mutable truncated : bool;
  port_seen : (string, unit) Hashtbl.t; (* dedup for port violations *)
  cap_streak : (int, int) Hashtbl.t;    (* link -> consecutive 2κ-bound probes *)
  rate_streak : (int, int) Hashtbl.t;   (* link -> consecutive over-rate probes *)
}

let create () =
  {
    streak_limit = 3;
    flows = Hashtbl.create 64;
    streaming = [];
    count = 0;
    truncated = false;
    port_seen = Hashtbl.create 16;
    cap_streak = Hashtbl.create 16;
    rate_streak = Hashtbl.create 16;
  }

let add_violation t v =
  if t.count < max_violations then begin
    t.streaming <- v :: t.streaming;
    t.count <- t.count + 1
  end
  else if not t.truncated then begin
    t.truncated <- true;
    t.streaming <-
      Report.violation ~time:v.Report.time ~entity:"monitor" ~invariant:"meta"
        (Printf.sprintf "violation cap (%d) reached; further reports dropped"
           max_violations)
      :: t.streaming
  end

let meta t flow = Hashtbl.find_opt t.flows flow

let on_event t ~time ev =
  match ev with
  | Trace.Flow_admitted { flow; size; deadline; _ } ->
      Hashtbl.replace t.flows flow
        {
          size;
          deadline_abs = deadline;
          rx = 0;
          rx_overflow = false;
          last_activity = time;
          completed_at = None;
          terminated_at = None;
          rates = [];
        }
  | Trace.Flow_rx { flow; bytes } -> (
      match meta t flow with
      | None -> () (* M-PDQ subflow or unknown id *)
      | Some m ->
          m.rx <- m.rx + bytes;
          m.last_activity <- time;
          if m.rx > m.size && not m.rx_overflow then begin
            m.rx_overflow <- true;
            add_violation t
              (Report.violation ~time
                 ~entity:(Printf.sprintf "flow %d" flow)
                 ~invariant:"bytes"
                 (Printf.sprintf "receiver accepted %d bytes > flow size %d"
                    m.rx m.size))
          end)
  | Trace.Flow_paused { flow; _ } -> (
      match meta t flow with
      | None -> ()
      | Some m ->
          m.last_activity <- time;
          m.rates <- (time, 0.) :: m.rates)
  | Trace.Flow_resumed { flow; rate } | Trace.Flow_rate_set { flow; rate } -> (
      match meta t flow with
      | None -> ()
      | Some m ->
          if not (Float.is_finite rate) || rate < 0. then
            add_violation t
              (Report.violation ~time
                 ~entity:(Printf.sprintf "flow %d" flow)
                 ~invariant:"capacity"
                 (Printf.sprintf "granted rate %g < 0 or not finite" rate));
          m.last_activity <- time;
          m.rates <- (time, rate) :: m.rates)
  | Trace.Flow_completed { flow; fct } -> (
      match meta t flow with
      | None -> ()
      | Some m ->
          m.completed_at <- Some time;
          if fct < -1e-12 then
            add_violation t
              (Report.violation ~time
                 ~entity:(Printf.sprintf "flow %d" flow)
                 ~invariant:"bytes"
                 (Printf.sprintf "negative FCT %g" fct)))
  | Trace.Flow_terminated { flow } -> (
      match meta t flow with
      | None -> ()
      | Some m -> m.terminated_at <- Some time)
  | _ -> ()

let sink t = Trace.callback (fun ~time ev -> on_event t ~time ev)

(* Switch flow-state bounds at a probe tick. The hard memory bound [M]
   and internal consistency must hold at every instant; the elastic 2κ
   bound is only enforced on insertion (§3.3.1), so a shrinking κ may
   leave the list transiently over capacity — require the excess to
   persist across [streak_limit] consecutive probes before reporting. *)
let on_port t ~now (v : Runner.port_view) =
  let entity = Printf.sprintf "port %d" v.Runner.pv_link in
  let once key detail =
    if not (Hashtbl.mem t.port_seen key) then begin
      Hashtbl.replace t.port_seen key ();
      add_violation t
        (Report.violation ~time:now ~entity ~invariant:"flow_list" detail)
    end
  in
  List.iter
    (fun msg -> once (Printf.sprintf "%d/%s" v.Runner.pv_link msg) msg)
    v.Runner.inconsistencies;
  if v.Runner.stored > v.Runner.max_list then
    once
      (Printf.sprintf "%d/max_list" v.Runner.pv_link)
      (Printf.sprintf "stored %d > memory bound M = %d" v.Runner.stored
         v.Runner.max_list);
  if v.Runner.sending + v.Runner.paused <> v.Runner.stored then
    once
      (Printf.sprintf "%d/split" v.Runner.pv_link)
      (Printf.sprintf "sending %d + paused %d <> stored %d" v.Runner.sending
         v.Runner.paused v.Runner.stored);
  (* Capacity conservation at the allocator itself: granted rates
     beyond the paper's Early Start allowance must fit the line rate.
     Grants go stale for ~an RTT between headers, so require the excess
     to persist across [streak_limit] consecutive probes. *)
  if v.Runner.mature_rate_sum > v.Runner.line_rate *. (1. +. capacity_slack)
  then begin
    let streak =
      1 + Option.value ~default:0 (Hashtbl.find_opt t.rate_streak v.Runner.pv_link)
    in
    Hashtbl.replace t.rate_streak v.Runner.pv_link streak;
    if streak = t.streak_limit then
      if not (Hashtbl.mem t.port_seen (Printf.sprintf "%d/rate" v.Runner.pv_link))
      then begin
        Hashtbl.replace t.port_seen (Printf.sprintf "%d/rate" v.Runner.pv_link) ();
        add_violation t
          (Report.violation ~time:now ~entity ~invariant:"capacity"
             (Printf.sprintf
                "granted %.3g > line rate %.3g beyond the Early Start \
                 allowance for %d consecutive probes"
                v.Runner.mature_rate_sum v.Runner.line_rate streak))
      end
  end
  else Hashtbl.remove t.rate_streak v.Runner.pv_link;
  (* The 2κ bound is enforced on insertion only: a shrinking κ leaves
     the list over current capacity until the next store. Tolerate that
     implementation laziness (a few entries, bounded) and flag only a
     persistent gross excess — the kind a real leak produces. *)
  let kappa_tolerance = max 2 (v.Runner.capacity_bound / 4) in
  if v.Runner.stored > v.Runner.capacity_bound + kappa_tolerance then begin
    let streak =
      1 + Option.value ~default:0 (Hashtbl.find_opt t.cap_streak v.Runner.pv_link)
    in
    Hashtbl.replace t.cap_streak v.Runner.pv_link streak;
    if streak = t.streak_limit then
      once
        (Printf.sprintf "%d/2kappa" v.Runner.pv_link)
        (Printf.sprintf
           "stored %d > 2κ capacity %d (+%d tolerance) for %d consecutive \
            probes"
           v.Runner.stored v.Runner.capacity_bound kappa_tolerance streak)
  end
  else Hashtbl.remove t.cap_streak v.Runner.pv_link

let telemetry t ~base =
  {
    base with
    Runner.sinks = sink t :: base.Runner.sinks;
    port_probe =
      (match base.Runner.port_probe with
      | None -> Some (on_port t)
      | Some f ->
          Some
            (fun ~now v ->
              f ~now v;
              on_port t ~now v));
  }

(* Capacity conservation: replay every flow's sender-side granted-rate
   history over its pinned route and require that, per directed link,
   the sum of granted rates exceeds the line rate only in bursts no
   longer than [es_window] — Early Start deliberately over-commits for
   up to ~2 RTTs while a nearly-finished flow drains (§3.3.2), so an
   instantaneous check would reject correct runs. *)
let capacity_sweep t ~result ~topo =
  let per_link : (int, (float * int * float) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let add_event link ev =
    match Hashtbl.find_opt per_link link with
    | Some l -> l := ev :: !l
    | None -> Hashtbl.replace per_link link (ref [ ev ])
  in
  Hashtbl.iter
    (fun flow_id (m : fmeta) ->
      match m.rates with
      | [] -> ()
      | newest_first ->
          (* A flow that neither completed nor terminated holds its
             last granted rate only for a staleness grace after its
             last rx/rate event: a stalled sender (dead path, lost
             ACKs) keeps a lease it is no longer using, and switches
             purge such entries on the same timescale. *)
          let end_time =
            match (m.completed_at, m.terminated_at) with
            | Some c, _ -> c
            | None, Some te -> te
            | None, None ->
                min result.Runner.sim_end (m.last_activity +. stale_grace)
          in
          let links = Context.route result.Runner.ctx flow_id in
          let history = List.rev ((end_time, 0.) :: newest_first) in
          Array.iter
            (fun link ->
              List.iter
                (fun (time, rate) -> add_event link (time, flow_id, rate))
                history)
            links)
    t.flows;
  Hashtbl.iter
    (fun link events ->
      let rate = Link.rate (Topology.link topo link) in
      let threshold = rate *. (1. +. capacity_slack) in
      let sorted =
        List.stable_sort
          (fun (a, _, _) (b, _, _) -> Float.compare a b)
          !events
      in
      let cur : (int, float) Hashtbl.t = Hashtbl.create 8 in
      let sum = ref 0. in
      let over_since = ref None in
      let peak = ref 0. in
      let close now =
        match !over_since with
        | Some t0 when now -. t0 > es_window ->
            add_violation t
              (Report.violation ~time:t0
                 ~entity:(Printf.sprintf "link %d" link)
                 ~invariant:"capacity"
                 (Printf.sprintf
                    "granted rates sum to %.3g > capacity %.3g for %.4gs \
                     (Early Start window %.4gs)"
                    !peak rate (now -. t0) es_window));
            over_since := None
        | _ -> over_since := None
      in
      List.iter
        (fun (time, flow, new_rate) ->
          let old = Option.value ~default:0. (Hashtbl.find_opt cur flow) in
          Hashtbl.replace cur flow new_rate;
          sum := !sum +. new_rate -. old;
          if !sum > threshold then begin
            if !over_since = None then begin
              over_since := Some time;
              peak := !sum
            end
            else if !sum > !peak then peak := !sum
          end
          else if !over_since <> None then close time)
        sorted;
      close result.Runner.sim_end)
    per_link

(* Deadline accounting. Two conditions:
   - [met_deadline] in the result agrees with [fct <= relative deadline]
     for every completed deadline flow;
   - Early Termination only killed infeasible flows: a terminated
     deadline flow must not have had enough time left to drain its
     remaining bytes at the route's full goodput rate. The sender's ET
     rule works from [remaining / (line rate × efficiency)] plus a
     paused-flow grace of one min-RTT, so [rtt_slack] (2 ms)
     absorbs both the RTT term and rate quantization. *)
let deadline_checks t ~result ~topo =
  Array.iteri
    (fun flow_id (r : Runner.flow_result) ->
      let entity = Printf.sprintf "flow %d" flow_id in
      (match (r.Runner.fct, r.Runner.spec.Context.deadline) with
      | Some fct, Some d ->
          let met = fct <= d +. 1e-9 in
          if met <> r.Runner.met_deadline then
            add_violation t
              (Report.violation ~time:result.Runner.sim_end ~entity
                 ~invariant:"deadline"
                 (Printf.sprintf
                    "met_deadline = %b but fct %.6g vs deadline %.6g"
                    r.Runner.met_deadline fct d))
      | _ -> ());
      match meta t flow_id with
      | None -> ()
      | Some m -> (
          (* Byte conservation at completion: the receiver held exactly
             the flow's bytes, no more, no fewer. M-PDQ attributes
             delivery to subflow ids, so a parent flow with no rx
             events of its own is skipped. *)
          (match m.completed_at with
          | Some ct when m.rx > 0 && m.rx <> m.size ->
              add_violation t
                (Report.violation ~time:ct ~entity ~invariant:"bytes"
                   (Printf.sprintf
                      "completed with %d received bytes <> size %d" m.rx
                      m.size))
          | _ -> ());
          match (m.terminated_at, m.deadline_abs) with
          | Some te, Some d ->
              let min_rate =
                Array.fold_left
                  (fun acc l -> min acc (Link.rate (Topology.link topo l)))
                  infinity
                  (Context.route result.Runner.ctx flow_id)
              in
              let remaining_bits =
                Pdq_engine.Units.bytes_to_bits (max 0 (m.size - m.rx))
              in
              let drain = remaining_bits /. max (min_rate *. 0.97) 1. in
              if te +. drain +. rtt_slack <= d then
                add_violation t
                  (Report.violation ~time:te ~entity ~invariant:"deadline"
                     (Printf.sprintf
                        "early-terminated but feasible: %.6g + drain %.6g \
                         + slack %.4g <= deadline %.6g"
                        te drain rtt_slack d))
          | _ -> ()))
    result.Runner.flows

let violations t = List.rev t.streaming

let finalize t ~result ~topo =
  capacity_sweep t ~result ~topo;
  deadline_checks t ~result ~topo;
  List.stable_sort
    (fun (a : Report.violation) b -> Float.compare a.Report.time b.Report.time)
    (violations t)
