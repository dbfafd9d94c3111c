(* Tests for pdq_core: criticality, flow list, switch port (Algorithms
   1-3), sender state machine, configs. *)

module Config = Pdq_core.Config
module Header = Pdq_core.Header
module Criticality = Pdq_core.Criticality
module Flow_state = Pdq_core.Flow_state
module Flow_list = Pdq_core.Flow_list
module Switch_port = Pdq_core.Switch_port
module Sender = Pdq_core.Sender
module Units = Pdq_engine.Units

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)
let gbps = Units.gbps 1.

let key ?deadline ~ttx ~id () =
  { Criticality.deadline; expected_tx_time = ttx; flow_id = id }

(* ------------------------------------------------------------------ *)
(* Criticality *)

let test_crit_edf_first () =
  (* Smaller deadline wins regardless of size. *)
  let a = key ~deadline:1. ~ttx:100. ~id:2 () in
  let b = key ~deadline:2. ~ttx:0.001 ~id:1 () in
  Alcotest.(check bool) "EDF dominates SJF" true (Criticality.more_critical a b)

let test_crit_deadline_outranks_no_deadline () =
  let a = key ~deadline:100. ~ttx:10. ~id:2 () in
  let b = key ~ttx:0.001 ~id:1 () in
  Alcotest.(check bool) "deadline flow outranks" true
    (Criticality.more_critical a b)

let test_crit_sjf_tiebreak () =
  let a = key ~ttx:1. ~id:2 () in
  let b = key ~ttx:2. ~id:1 () in
  Alcotest.(check bool) "smaller expected tx time wins" true
    (Criticality.more_critical a b)

let test_crit_id_tiebreak () =
  let a = key ~ttx:1. ~id:1 () in
  let b = key ~ttx:1. ~id:2 () in
  Alcotest.(check bool) "flow id breaks remaining ties" true
    (Criticality.more_critical a b);
  Alcotest.(check int) "self-comparison is equal" 0 (Criticality.compare a a)

let test_crit_aging () =
  (* T/2^(alpha * t/100ms): waiting 200 ms at rate 1 divides by 4. *)
  let aged =
    Criticality.aged_tx_time ~aging_rate:1. ~wait:0.2 ~expected_tx_time:8.
  in
  if not (feq 2. aged) then Alcotest.failf "aged ttx %g, expected 2." aged;
  (* An old large flow eventually outranks a young small one. *)
  let old_big =
    Criticality.aged_tx_time ~aging_rate:1. ~wait:1. ~expected_tx_time:8.
  in
  Alcotest.(check bool) "aging promotes the old flow" true
    (Criticality.more_critical (key ~ttx:old_big ~id:1 ()) (key ~ttx:1. ~id:2 ()))

let test_crit_equal_deadline_tiebreak () =
  (* Equal deadlines fall through to SJF... *)
  let a = key ~deadline:1. ~ttx:2. ~id:1 () in
  let b = key ~deadline:1. ~ttx:1. ~id:9 () in
  Alcotest.(check bool) "equal deadlines -> SJF decides" true
    (Criticality.more_critical b a);
  (* ...and a full tie on deadline and size to the flow id. *)
  let c = key ~deadline:1. ~ttx:1. ~id:2 () in
  Alcotest.(check bool) "full tie -> lower id wins" true
    (Criticality.more_critical c b);
  Alcotest.(check bool) "tie-break is antisymmetric" false
    (Criticality.more_critical b c)

let prop_crit_total_order =
  QCheck.Test.make ~name:"criticality is a strict total order" ~count:300
    QCheck.(
      triple (option (float_bound_exclusive 10.)) (float_bound_exclusive 10.)
        small_nat)
    (fun (d, ttx, id) ->
      let a = { Criticality.deadline = d; expected_tx_time = ttx; flow_id = id } in
      let b = key ~deadline:5. ~ttx:5. ~id:3 () in
      let ab = Criticality.compare a b and ba = Criticality.compare b a in
      (ab = 0) = (ba = 0) && (ab > 0) = (ba < 0))

(* ------------------------------------------------------------------ *)
(* Flow_list *)

let state ?deadline ~id ~ttx () =
  Flow_state.create ?deadline ~flow_id:id ~expected_tx_time:ttx ~rtt:1.5e-4
    ~now:0. ()

let test_flow_list_sorted_insert () =
  let l = Flow_list.create () in
  ignore (Flow_list.insert l (state ~id:1 ~ttx:3. ()));
  ignore (Flow_list.insert l (state ~id:2 ~ttx:1. ()));
  ignore (Flow_list.insert l (state ~id:3 ~ttx:2. ()));
  Alcotest.(check bool) "sorted" true (Flow_list.is_sorted l);
  Alcotest.(check int) "most critical first" 2 (Flow_list.get l 0).Flow_state.flow_id;
  Alcotest.(check int) "least critical last" 1
    (match Flow_list.least_critical l with
    | Some s -> s.Flow_state.flow_id
    | None -> -1)

let test_flow_list_find_remove () =
  let l = Flow_list.create () in
  ignore (Flow_list.insert l (state ~id:1 ~ttx:3. ()));
  ignore (Flow_list.insert l (state ~id:2 ~ttx:1. ()));
  let i = Flow_list.index_of l 1 in
  Alcotest.(check int) "index" 1 i;
  Alcotest.(check int) "id" 1 (Flow_list.get l i).Flow_state.flow_id;
  Alcotest.(check int) "absent id" (-1) (Flow_list.index_of l 3);
  (match Flow_list.remove l 1 with
  | Some s -> Alcotest.(check int) "removed" 1 s.Flow_state.flow_id
  | None -> Alcotest.fail "remove");
  Alcotest.(check int) "length" 1 (Flow_list.length l);
  Alcotest.(check bool) "gone" false (Flow_list.mem l 1)

let test_flow_list_reposition () =
  let l = Flow_list.create () in
  let s1 = state ~id:1 ~ttx:1. () and s2 = state ~id:2 ~ttx:2. () in
  ignore (Flow_list.insert l s1);
  ignore (Flow_list.insert l s2);
  (* Flow 1 drains more slowly than expected; now less critical. *)
  s1.Flow_state.expected_tx_time <- 5.;
  Alcotest.(check int) "new index" 1
    (Flow_list.reposition_at l (Flow_list.index_of l 1));
  Alcotest.(check bool) "sorted after reposition" true (Flow_list.is_sorted l);
  Alcotest.(check int) "flow 2 now first" 2 (Flow_list.get l 0).Flow_state.flow_id

let test_flow_list_sending_count () =
  let l = Flow_list.create () in
  let s1 = state ~id:1 ~ttx:1. () and s2 = state ~id:2 ~ttx:2. () in
  ignore (Flow_list.insert l s1);
  ignore (Flow_list.insert l s2);
  Alcotest.(check int) "none sending initially" 0 (Flow_list.sending_count l);
  s1.Flow_state.rate <- 1e9;
  Alcotest.(check int) "one sending" 1 (Flow_list.sending_count l);
  if not (feq 1e9 (Flow_list.total_rate l)) then Alcotest.fail "total rate"

let test_flow_list_empty_probes () =
  (* Every read-only probe must be total on the empty list (the
     validation monitor calls them on freshly rebooted ports). *)
  let l = Flow_list.create () in
  Alcotest.(check int) "length" 0 (Flow_list.length l);
  Alcotest.(check bool) "is_empty" true (Flow_list.is_empty l);
  Alcotest.(check bool) "sorted" true (Flow_list.is_sorted l);
  Alcotest.(check bool) "least_critical" true (Flow_list.least_critical l = None);
  Alcotest.(check int) "index_of" (-1) (Flow_list.index_of l 0);
  Alcotest.(check bool) "remove" true (Flow_list.remove l 0 = None);
  Alcotest.(check bool) "remove_least_critical" true
    (Flow_list.remove_least_critical l = None);
  Alcotest.(check bool) "mem" false (Flow_list.mem l 0);
  Alcotest.(check int) "sending_count" 0 (Flow_list.sending_count l);
  if not (feq 0. (Flow_list.total_rate l)) then Alcotest.fail "total_rate";
  Flow_list.iteri (fun _ _ -> Alcotest.fail "iteri on empty") l;
  Alcotest.(check int) "fold" 0 (Flow_list.fold (fun n _ -> n + 1) 0 l)

let prop_flow_list_sorted =
  QCheck.Test.make ~name:"flow list stays sorted under inserts" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (pair (float_bound_exclusive 10.) bool))
    (fun entries ->
      let l = Flow_list.create () in
      List.iteri
        (fun i (ttx, has_deadline) ->
          let deadline = if has_deadline then Some (ttx *. 2.) else None in
          ignore (Flow_list.insert l (state ?deadline ~id:i ~ttx ())))
        entries;
      Flow_list.is_sorted l && Flow_list.length l = List.length entries)

let key_of (s : Flow_state.t) =
  key ?deadline:s.deadline ~ttx:s.expected_tx_time ~id:s.flow_id ()

(* Mutate one entry's deadline or expected transmission time in place:
   [reposition_at] must leave the list, and report the index, that a
   sort of the mutated entries by [Criticality.compare] gives. *)
let prop_flow_list_reposition_model =
  QCheck.Test.make ~name:"reposition_at matches a sorted model" ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(1 -- 20) (pair (float_bound_exclusive 10.) bool))
        small_nat
        (pair (option (float_bound_exclusive 20.)) (float_bound_exclusive 10.))
        bool)
    (fun (entries, pick, (deadline', ttx'), mutate_deadline) ->
      let l = Flow_list.create () in
      let states =
        List.mapi
          (fun i (ttx, has_deadline) ->
            let deadline = if has_deadline then Some (ttx *. 2.) else None in
            state ?deadline ~id:i ~ttx ())
          entries
      in
      List.iter (fun s -> ignore (Flow_list.insert l s)) states;
      let n = List.length states in
      let k = pick mod n in
      let moved = Flow_list.get l k in
      if mutate_deadline then moved.Flow_state.deadline <- deadline'
      else moved.Flow_state.expected_tx_time <- ttx';
      let i = Flow_list.reposition_at l k in
      let model =
        List.sort (fun a b -> Criticality.compare (key_of a) (key_of b)) states
        |> List.map (fun s -> s.Flow_state.flow_id)
      in
      let got =
        List.init (Flow_list.length l) (fun j ->
            (Flow_list.get l j).Flow_state.flow_id)
      in
      got = model
      && List.nth model i = moved.Flow_state.flow_id
      && Flow_list.index_of l moved.Flow_state.flow_id = i
      && Flow_list.index_of l n = -1
      && Flow_list.index_of l (-1) = -1
      && Flow_list.is_sorted l)

(* ------------------------------------------------------------------ *)
(* Switch_port: Algorithms 1-3 *)

let mk_port ?(config = Config.full) () =
  Switch_port.create ~config ~switch_id:99 ~link_rate:gbps ~init_rtt:1.5e-4 ()

let mk_header ?deadline ?(rate = gbps) ?(ttx = 1e-3) () =
  Header.make ?deadline ~rate ~expected_tx_time:ttx ~rtt:1.5e-4 ()

let test_port_accepts_first_flow () =
  let port = mk_port () in
  let h = mk_header () in
  Switch_port.process_forward port h ~flow_id:1 ~now:0.;
  Alcotest.(check bool) "accepted (not paused)" true (h.Header.pause_by = None);
  if not (feq gbps h.Header.rate) then
    Alcotest.failf "full line rate, got %g" h.Header.rate

let test_port_pauses_second_flow () =
  let port = mk_port () in
  let h1 = mk_header ~ttx:1e-3 () in
  Switch_port.process_forward port h1 ~flow_id:1 ~now:0.;
  (* ACK confirms acceptance so flow 1 holds the bandwidth (R_1 > 0). *)
  Switch_port.process_reverse port h1 ~flow_id:1 ~now:1e-4;
  (* A longer flow must be paused: all bandwidth is taken and it is not
     nearly-completed. *)
  let h2 = mk_header ~ttx:10. () in
  Switch_port.process_forward port h2 ~flow_id:2 ~now:2e-4;
  Alcotest.(check bool) "paused by this switch" true
    (h2.Header.pause_by = Some 99)

let test_port_preemption () =
  let port = mk_port () in
  (* A long flow is accepted and sending... *)
  let h1 = mk_header ~ttx:10. () in
  Switch_port.process_forward port h1 ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h1 ~flow_id:1 ~now:1e-4;
  (* ...then a more critical (much shorter) flow arrives: it preempts. *)
  let h2 = mk_header ~ttx:0.5 () in
  Switch_port.process_forward port h2 ~flow_id:2 ~now:1.;
  Alcotest.(check bool) "short flow accepted" true (h2.Header.pause_by = None);
  Switch_port.process_reverse port h2 ~flow_id:2 ~now:1.0001;
  (* The long flow's next packet gets paused. *)
  let h1' = mk_header ~ttx:10. () in
  Switch_port.process_forward port h1' ~flow_id:1 ~now:1.001;
  Alcotest.(check bool) "long flow preempted" true (h1'.Header.pause_by = Some 99)

let test_port_edf_preempts_sjf () =
  let port = mk_port () in
  let h1 = mk_header ~ttx:0.001 () in
  Switch_port.process_forward port h1 ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h1 ~flow_id:1 ~now:1e-4;
  (* Deadline flow outranks the shorter no-deadline flow. *)
  let h2 = mk_header ~deadline:1. ~ttx:0.1 () in
  Switch_port.process_forward port h2 ~flow_id:2 ~now:0.001;
  Alcotest.(check bool) "deadline flow accepted" true (h2.Header.pause_by = None)

let test_port_respects_upstream_pause () =
  let port = mk_port () in
  let h = mk_header () in
  h.Header.pause_by <- Some 7;
  Switch_port.process_forward port h ~flow_id:1 ~now:0.;
  Alcotest.(check bool) "upstream pause untouched" true (h.Header.pause_by = Some 7);
  Alcotest.(check int) "not stored" 0 (Flow_list.length (Switch_port.flow_list port))

let test_port_reverse_commits_rate () =
  let port = mk_port () in
  let h = mk_header () in
  Switch_port.process_forward port h ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h ~flow_id:1 ~now:1e-4;
  let l = Switch_port.flow_list port in
  let i = Flow_list.index_of l 1 in
  if i < 0 then Alcotest.fail "flow should be stored";
  let s = Flow_list.get l i in
  Alcotest.(check bool) "rate committed" true (s.Flow_state.rate > 0.);
  Alcotest.(check bool) "unpaused" true (s.Flow_state.pause_by = None)

(* The per-hop switch path on flows that are stored and sending:
   index lookups, in-place repositioning and a shared pause cell leave
   only the boxed float writes of the header and the port. *)
let test_port_alloc_per_pair () =
  let port = mk_port () in
  let flows = 4 in
  (* Each flow asks for a share the port can grant to all of them. *)
  let share = gbps /. float_of_int (2 * flows) in
  let headers =
    Array.init flows (fun i ->
        mk_header ~rate:share ~ttx:(float_of_int (i + 1) *. 1e-2) ())
  in
  let pair i now =
    let h = headers.(i) in
    h.Header.rate <- share;
    h.Header.pause_by <- None;
    Switch_port.process_forward port h ~flow_id:i ~now;
    Switch_port.process_reverse port h ~flow_id:i ~now
  in
  (* Admit the flows one second apart, clear of the dampening window. *)
  for i = 0 to flows - 1 do
    pair i (float_of_int i)
  done;
  let l = Switch_port.flow_list port in
  Alcotest.(check int) "all stored" flows (Flow_list.length l);
  Alcotest.(check int) "all sending" flows (Flow_list.sending_count l);
  let rounds = 10_000 / flows in
  let now = float_of_int flows in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    for i = 0 to flows - 1 do
      pair i now
    done
  done;
  let per_pair = (Gc.minor_words () -. w0) /. float_of_int (rounds * flows) in
  Alcotest.(check int) "still sending" flows (Flow_list.sending_count l);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per forward+reverse pair <= 16 (got %.2f)"
       per_pair)
    true (per_pair <= 16.)

(* The benchmark's isolated switch-port stage at 8 flows: a fresh
   PDQ(Full) port, every header forward then reverse once per round.
   The round times are boxed up front, so the words counted are the
   port's own boxed float writes (the header's rate and probe spacing,
   the RTT average): 2.0 a header on OCaml 5.1. The bound catches a
   polymorphic [min]/[max] on the rates, which costs a word more. *)
let test_port_words_per_header () =
  let port = mk_port () in
  let flows = 8 in
  let headers =
    Array.init flows (fun i ->
        mk_header ~ttx:(float_of_int (i + 1) *. 1e-4) ())
  in
  let rounds = 2_000 in
  let times = List.init rounds (fun r -> float_of_int r *. 1e-5) in
  let w0 = Gc.minor_words () in
  List.iter
    (fun now ->
      for i = 0 to flows - 1 do
        let h = headers.(i) in
        h.Header.rate <- gbps;
        h.Header.pause_by <- None;
        Switch_port.process_forward port h ~flow_id:i ~now
      done;
      for i = 0 to flows - 1 do
        Switch_port.process_reverse port headers.(i) ~flow_id:i ~now
      done)
    times;
  let per_header =
    (Gc.minor_words () -. w0) /. float_of_int (2 * rounds * flows)
  in
  Alcotest.(check int) "all stored" flows
    (Flow_list.length (Switch_port.flow_list port));
  Alcotest.(check bool)
    (Printf.sprintf "minor words per header < 2.5 (got %.2f)" per_header)
    true (per_header < 2.5)

let test_port_reverse_zeroes_paused_rate () =
  let port = mk_port () in
  let h = mk_header () in
  h.Header.pause_by <- Some 99;
  h.Header.rate <- gbps;
  Switch_port.process_reverse port h ~flow_id:5 ~now:0.;
  if not (feq 0. h.Header.rate) then Alcotest.fail "paused ACK must carry rate 0"

let test_port_early_start () =
  let config = Config.full in
  let port = mk_port ~config () in
  (* Flow 1: nearly completed (will finish within K=2 RTTs). *)
  let rtt = 1.5e-4 in
  let h1 = mk_header ~ttx:(0.5 *. rtt) () in
  Switch_port.process_forward port h1 ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h1 ~flow_id:1 ~now:1e-5;
  (* Flow 2 should be early-started: flow 1 is nearly done. *)
  let h2 = mk_header ~ttx:1. () in
  Switch_port.process_forward port h2 ~flow_id:2 ~now:2e-5;
  Alcotest.(check bool) "early start accepts next flow" true
    (h2.Header.pause_by = None)

let test_port_no_early_start_in_basic () =
  let port = mk_port ~config:Config.basic () in
  let rtt = 1.5e-4 in
  let h1 = mk_header ~ttx:(0.5 *. rtt) () in
  Switch_port.process_forward port h1 ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h1 ~flow_id:1 ~now:1e-5;
  let h2 = mk_header ~ttx:1. () in
  Switch_port.process_forward port h2 ~flow_id:2 ~now:2e-5;
  Alcotest.(check bool) "basic PDQ does not early-start" true
    (h2.Header.pause_by = Some 99)

let test_port_suppressed_probing () =
  let port = mk_port () in
  (* Store three flows; flows 2 and 3 paused. *)
  List.iteri
    (fun i ttx ->
      let h = mk_header ~ttx () in
      Switch_port.process_forward port h ~flow_id:(i + 1) ~now:0.;
      Switch_port.process_reverse port h ~flow_id:(i + 1) ~now:1e-5)
    [ 10.; 20.; 30. ];
  (* ACK of the third flow (index 2): inter-probe = X * 2 = 0.4. *)
  let h = mk_header ~ttx:30. () in
  h.Header.pause_by <- Some 99;
  Switch_port.process_reverse port h ~flow_id:3 ~now:2e-5;
  if not (feq 0.4 h.Header.inter_probe_rtts) then
    Alcotest.failf "inter-probe %g, expected 0.4" h.Header.inter_probe_rtts

let test_port_rate_controller_drains_queue () =
  let port = mk_port () in
  Switch_port.update_rate_controller port ~queue_bytes:0 ~now:0.;
  if not (feq gbps (Switch_port.available_rate port)) then
    Alcotest.fail "empty queue: C = line rate";
  (* A standing queue lowers C by q/(2 RTT); one MTU of queue (the
     packet in service) is tolerated. *)
  Switch_port.update_rate_controller port ~queue_bytes:15000 ~now:1e-3;
  let expected = gbps -. (13500. *. 8. /. (2. *. Switch_port.rtt_avg port)) in
  if not (feq expected (Switch_port.available_rate port)) then
    Alcotest.failf "C = %g, expected %g" (Switch_port.available_rate port) expected

let test_port_rcp_fallback () =
  (* Hard memory bound of 2: the third flow falls back to RCP. *)
  let config = { Config.full with Config.max_list_size = 2; min_list_size = 1 } in
  let port = mk_port ~config () in
  List.iteri
    (fun i ttx ->
      let h = mk_header ~ttx () in
      Switch_port.process_forward port h ~flow_id:(i + 1) ~now:0.;
      Switch_port.process_reverse port h ~flow_id:(i + 1) ~now:1e-5)
    [ 1.; 2. ];
  let h3 = mk_header ~ttx:30. () in
  Switch_port.process_forward port h3 ~flow_id:3 ~now:2e-5;
  Alcotest.(check int) "fallback population" 1
    (Switch_port.fallback_flow_count port);
  Alcotest.(check int) "list capped" 2
    (Flow_list.length (Switch_port.flow_list port))

(* The RCP fallback forgets a flow once it has been silent for more than
   4 RTTs (here 6e-4 s) and keeps every other one. *)
let test_port_fallback_purge () =
  let config = { Config.full with Config.max_list_size = 2; min_list_size = 1 } in
  let port = mk_port ~config () in
  List.iteri
    (fun i ttx ->
      let h = mk_header ~ttx () in
      Switch_port.process_forward port h ~flow_id:(i + 1) ~now:0.;
      Switch_port.process_reverse port h ~flow_id:(i + 1) ~now:1e-5)
    [ 1.; 2. ];
  let seen flow_id now expect =
    Switch_port.process_forward port (mk_header ~ttx:30. ()) ~flow_id ~now;
    Alcotest.(check int)
      (Printf.sprintf "fallback flows after flow %d at %g" flow_id now)
      expect
      (Switch_port.fallback_flow_count port)
  in
  seen 3 1e-4 1;
  seen 4 3e-4 2;
  seen 3 6e-4 2;
  seen 5 8e-4 3;
  (* Flow 4, last seen at 3e-4, is now 7e-4 old. *)
  seen 5 1e-3 2;
  (* Flow 3, last seen at 6e-4, is now 7e-4 old. *)
  seen 5 1.3e-3 1;
  seen 4 1.4e-3 2

let test_port_term_removes () =
  let port = mk_port () in
  let h = mk_header () in
  Switch_port.process_forward port h ~flow_id:1 ~now:0.;
  Alcotest.(check int) "stored" 1 (Flow_list.length (Switch_port.flow_list port));
  Switch_port.remove_flow port 1 ~now:1e-4;
  Alcotest.(check int) "removed" 0 (Flow_list.length (Switch_port.flow_list port))

let test_port_stale_purge () =
  let port = mk_port () in
  let h = mk_header () in
  Switch_port.process_forward port h ~flow_id:1 ~now:0.;
  (* Long silence (lost TERM): rate-controller tick purges the entry. *)
  Switch_port.update_rate_controller port ~queue_bytes:0 ~now:10.;
  Alcotest.(check int) "stale flow purged" 0
    (Flow_list.length (Switch_port.flow_list port))

let prop_port_pause_or_rate =
  QCheck.Test.make
    ~name:"forward pass either pauses or grants positive rate" ~count:300
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 10.))
    (fun ttxs ->
      let port = mk_port () in
      List.iteri
        (fun i ttx ->
          let h = mk_header ~ttx:(ttx +. 1e-6) () in
          Switch_port.process_forward port h ~flow_id:i ~now:(float_of_int i *. 1e-3);
          ignore (h.Header.pause_by <> None || h.Header.rate > 0.))
        ttxs;
      Flow_list.is_sorted (Switch_port.flow_list port))

(* ------------------------------------------------------------------ *)
(* Sender *)

let mk_sender ?deadline ?(size = 100_000) () =
  Sender.create ?deadline ~flow_id:1 ~size_bytes:size ~max_rate:gbps
    ~init_rtt:1.5e-4 ()

let test_sender_initial_state () =
  let s = mk_sender () in
  Alcotest.(check bool) "starts paused" true (Sender.is_paused s);
  Alcotest.(check int) "remaining" 100_000 (Sender.remaining_bytes s);
  (* T_S = size / (max rate x 1444/1500) = 800 x 1500/1444 us: the
     rate counts only a full packet's payload bytes. *)
  if not (feq (8e-4 *. 1500. /. 1444.) (Sender.expected_tx_time s)) then
    Alcotest.fail "T_S"

let test_sender_header_carries_max_rate () =
  let s = mk_sender () in
  let h = Sender.make_header s ~t:0. in
  if not (feq gbps h.Header.rate) then
    Alcotest.fail "R_H must be the maximal rate, not the current rate"

let test_sender_ack_feedback () =
  let s = mk_sender () in
  let h = Sender.make_header s ~t:0. in
  h.Header.rate <- 5e8;
  Sender.on_ack s h ~acked_bytes:50_000 ~rtt_sample:(Some 2e-4) ~now:1e-3;
  if not (feq 5e8 (Sender.rate s)) then Alcotest.fail "rate follows feedback";
  Alcotest.(check int) "remaining updated" 50_000 (Sender.remaining_bytes s);
  Alcotest.(check bool) "not paused" true (not (Sender.is_paused s))

let test_sender_pause_feedback () =
  let s = mk_sender () in
  let h = Sender.make_header s ~t:0. in
  h.Header.pause_by <- Some 4;
  h.Header.rate <- 0.;
  h.Header.inter_probe_rtts <- 3.;
  Sender.on_ack s h ~acked_bytes:0 ~rtt_sample:None ~now:1e-3;
  Alcotest.(check bool) "paused" true (Sender.is_paused s);
  Alcotest.(check bool) "paused by 4" true (Sender.paused_by s = Some 4);
  (* Inter-probe interval = I_S * RTT_S = 3 RTTs. *)
  if not (feq (3. *. Sender.rtt s) (Sender.inter_probe_interval s)) then
    Alcotest.fail "inter-probe interval"

let test_sender_early_termination_rules () =
  (* Rule 1/2: remaining transmission time exceeds time to deadline. *)
  let s = mk_sender ~deadline:1.0 ~size:10_000_000 () in
  Alcotest.(check bool) "infeasible at t=0.99" true
    (Sender.should_terminate s ~now:0.99);
  Alcotest.(check bool) "feasible early" false
    (Sender.should_terminate s ~now:0.5);
  (* Rule 1: past deadline. *)
  Alcotest.(check bool) "past deadline" true (Sender.should_terminate s ~now:1.1);
  (* Rule 3: paused and deadline within one RTT. *)
  let s3 = mk_sender ~deadline:1.0 ~size:10_000 () in
  Alcotest.(check bool) "paused near deadline" true
    (Sender.should_terminate s3 ~now:(1.0 -. 1e-4));
  (* No deadline: never terminates early. *)
  let s4 = mk_sender () in
  Alcotest.(check bool) "no deadline" false (Sender.should_terminate s4 ~now:100.)

let test_sender_finished () =
  let s = mk_sender ~size:1000 () in
  let h = Sender.make_header s ~t:0. in
  Sender.on_ack s h ~acked_bytes:1000 ~rtt_sample:None ~now:1e-3;
  Alcotest.(check bool) "finished" true (Sender.finished s)

let test_sender_resize () =
  let s = mk_sender ~size:1000 () in
  Sender.set_size s ~size:5000 ~acked:0;
  Alcotest.(check int) "remaining grows" 5000 (Sender.remaining_bytes s);
  Sender.set_size s ~size:200 ~acked:200;
  Alcotest.(check bool) "finished after shrink" true (Sender.finished s)

let test_port_pause_accept_stability () =
  let port = mk_port () in
  (* Flow 1 holds the bandwidth... *)
  let h1 = mk_header ~ttx:1. () in
  Switch_port.process_forward port h1 ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h1 ~flow_id:1 ~now:1e-4;
  (* ...so a longer flow stays paused on every consecutive header
     instead of flapping accept/pause as its own headers traverse. *)
  for i = 1 to 4 do
    let h2 = mk_header ~ttx:10. () in
    Switch_port.process_forward port h2 ~flow_id:2 ~now:(float_of_int i *. 1e-3);
    Alcotest.(check bool)
      (Printf.sprintf "header %d paused" i)
      true
      (h2.Header.pause_by = Some 99);
    Switch_port.process_reverse port h2 ~flow_id:2
      ~now:((float_of_int i *. 1e-3) +. 1e-4)
  done;
  (* The holder is never paused by the flapping candidate. *)
  let h1' = mk_header ~ttx:1. () in
  Switch_port.process_forward port h1' ~flow_id:1 ~now:5e-3;
  Alcotest.(check bool) "holder keeps sending" true (h1'.Header.pause_by = None);
  Alcotest.(check int) "exactly one sender" 1
    (Flow_list.sending_count (Switch_port.flow_list port))

let test_port_invariant_errors_clean () =
  let port = mk_port () in
  let h = mk_header ~ttx:1. () in
  Switch_port.process_forward port h ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h ~flow_id:1 ~now:1e-4;
  Alcotest.(check (list string)) "healthy port self-checks clean" []
    (Switch_port.invariant_errors port)

let test_port_mature_rate_sum () =
  (* A committed sender far from finishing counts fully against the
     line rate; a nearly-finished one (ttx under the paper's 4-RTT
     Early Start allowance) is excused. *)
  let port = mk_port () in
  let h = mk_header ~ttx:10. () in
  Switch_port.process_forward port h ~flow_id:1 ~now:0.;
  Switch_port.process_reverse port h ~flow_id:1 ~now:1e-4;
  if not (feq ~eps:1e-6 gbps (Switch_port.mature_rate_sum port)) then
    Alcotest.failf "mature flow counted, got %g" (Switch_port.mature_rate_sum port);
  let young = mk_port () in
  let hy = mk_header ~ttx:1e-4 () in
  Switch_port.process_forward young hy ~flow_id:1 ~now:0.;
  Switch_port.process_reverse young hy ~flow_id:1 ~now:1e-4;
  if not (feq ~eps:1e-6 0. (Switch_port.mature_rate_sum young)) then
    Alcotest.failf "nearly-finished flow excused, got %g"
      (Switch_port.mature_rate_sum young)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_variants () =
  Alcotest.(check string) "basic" "PDQ(Basic)" (Config.name Config.basic);
  Alcotest.(check string) "es" "PDQ(ES)" (Config.name Config.es);
  Alcotest.(check string) "es+et" "PDQ(ES+ET)" (Config.name Config.es_et);
  Alcotest.(check string) "full" "PDQ(Full)" (Config.name Config.full);
  let k4 = Config.with_k Config.full 4. in
  if not (feq 4. k4.Config.k_early_start) then Alcotest.fail "with_k"

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "core.criticality",
      [
        Alcotest.test_case "EDF first" `Quick test_crit_edf_first;
        Alcotest.test_case "deadline outranks none" `Quick
          test_crit_deadline_outranks_no_deadline;
        Alcotest.test_case "SJF tiebreak" `Quick test_crit_sjf_tiebreak;
        Alcotest.test_case "id tiebreak" `Quick test_crit_id_tiebreak;
        Alcotest.test_case "aging (Fig 12)" `Quick test_crit_aging;
        Alcotest.test_case "equal-deadline tie-break" `Quick
          test_crit_equal_deadline_tiebreak;
      ]
      @ qsuite [ prop_crit_total_order ] );
    ( "core.flow_list",
      [
        Alcotest.test_case "sorted insert" `Quick test_flow_list_sorted_insert;
        Alcotest.test_case "find/remove" `Quick test_flow_list_find_remove;
        Alcotest.test_case "reposition" `Quick test_flow_list_reposition;
        Alcotest.test_case "sending count" `Quick test_flow_list_sending_count;
        Alcotest.test_case "empty-list probes" `Quick test_flow_list_empty_probes;
      ]
      @ qsuite [ prop_flow_list_sorted; prop_flow_list_reposition_model ] );
    ( "core.switch_port",
      [
        Alcotest.test_case "accept first flow" `Quick test_port_accepts_first_flow;
        Alcotest.test_case "pause second flow" `Quick test_port_pauses_second_flow;
        Alcotest.test_case "preemption" `Quick test_port_preemption;
        Alcotest.test_case "EDF preempts SJF" `Quick test_port_edf_preempts_sjf;
        Alcotest.test_case "upstream pause respected" `Quick
          test_port_respects_upstream_pause;
        Alcotest.test_case "pause/accept stability" `Quick
          test_port_pause_accept_stability;
        Alcotest.test_case "invariant self-checks clean" `Quick
          test_port_invariant_errors_clean;
        Alcotest.test_case "mature rate sum" `Quick test_port_mature_rate_sum;
        Alcotest.test_case "reverse commits rate" `Quick
          test_port_reverse_commits_rate;
        Alcotest.test_case "allocation per forward+reverse pair" `Quick
          test_port_alloc_per_pair;
        Alcotest.test_case "minor words per header" `Quick
          test_port_words_per_header;
        Alcotest.test_case "reverse zeroes paused rate" `Quick
          test_port_reverse_zeroes_paused_rate;
        Alcotest.test_case "early start" `Quick test_port_early_start;
        Alcotest.test_case "no early start in basic" `Quick
          test_port_no_early_start_in_basic;
        Alcotest.test_case "suppressed probing" `Quick test_port_suppressed_probing;
        Alcotest.test_case "rate controller drains queue" `Quick
          test_port_rate_controller_drains_queue;
        Alcotest.test_case "RCP fallback beyond M" `Quick test_port_rcp_fallback;
        Alcotest.test_case "RCP fallback forgets silent flows" `Quick
          test_port_fallback_purge;
        Alcotest.test_case "TERM removes state" `Quick test_port_term_removes;
        Alcotest.test_case "stale purge" `Quick test_port_stale_purge;
      ]
      @ qsuite [ prop_port_pause_or_rate ] );
    ( "core.sender",
      [
        Alcotest.test_case "initial state" `Quick test_sender_initial_state;
        Alcotest.test_case "header carries max rate" `Quick
          test_sender_header_carries_max_rate;
        Alcotest.test_case "ack feedback" `Quick test_sender_ack_feedback;
        Alcotest.test_case "pause feedback" `Quick test_sender_pause_feedback;
        Alcotest.test_case "early termination rules" `Quick
          test_sender_early_termination_rules;
        Alcotest.test_case "finished" `Quick test_sender_finished;
        Alcotest.test_case "resize (M-PDQ)" `Quick test_sender_resize;
      ] );
    ("core.config", [ Alcotest.test_case "variants" `Quick test_config_variants ]);
  ]
