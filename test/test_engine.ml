(* Tests for pdq_engine: simulator, RNG, stats, series, units. *)

module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Stats = Pdq_engine.Stats
module Series = Pdq_engine.Series
module Units = Pdq_engine.Units
module Int_table = Pdq_engine.Int_table

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)

let check_float msg expected actual =
  if not (feq expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* The event core against a reference model: under arbitrary
   interleavings of schedule and cancel — including slot reuse after
   cancellation — surviving events must fire in exactly sorted
   (time, schedule-order) order. *)
let prop_sim_schedule_cancel_model =
  QCheck.Test.make ~name:"sim pop order matches reference model" ~count:300
    QCheck.(list (pair (int_bound 2) (float_bound_exclusive 100.)))
    (fun ops ->
      let sim = Sim.create () in
      let fired = ref [] in
      let model = ref [] in
      let handles = ref [] in
      let next_id = ref 0 in
      List.iter
        (fun (op, time) ->
          if op <= 1 then begin
            let id = !next_id in
            incr next_id;
            let h =
              Sim.schedule_at sim ~time (fun () -> fired := id :: !fired)
            in
            handles := (id, h) :: !handles;
            model := (time, id) :: !model
          end
          else
            (* Cancel the oldest tracked handle so later schedules
               reuse its slot. *)
            match List.rev !handles with
            | [] -> ()
            | (id, h) :: _ ->
                Sim.cancel sim h;
                handles := List.filter (fun (i, _) -> i <> id) !handles;
                model := List.filter (fun (_, i) -> i <> id) !model)
        ops;
      Sim.run sim;
      let expect =
        List.stable_sort
          (fun (ta, ia) (tb, ib) ->
            match compare ta tb with 0 -> compare ia ib | c -> c)
          (List.rev !model)
        |> List.map snd
      in
      List.rev !fired = expect)

(* Lanes against a reference model. One program drives both: heap
   events at absolute times, fixed-delay events over more distinct
   delays than there are lanes, cancels of the oldest live heap event
   (so later schedules reuse its slot), and fixed-delay events whose
   actions schedule more fixed-delay and heap events at a later clock.
   The first of those has the parent's delay, so a lane ring also grows
   after its head has moved. Most heap times are multiples of 1/4, so heap events tie with lane
   heads and lane heads with each other; the rest are thirds, which no
   float sum lands on exactly. A quarter of the programs hold hundreds
   of live heap events, so the heap, the slot store and the lanes grow
   while slots are reused. The run stops at a horizon, then drains.
   Both must fire the same events at the same times, in (time,
   schedule-order) order. *)
type backend = {
  now : unit -> float;
  at : time:float -> (unit -> unit) -> unit -> unit;
      (* schedule at [time]; the result cancels the event *)
  fixed : delay:float -> (unit -> unit) -> unit;
  run_until : float -> unit;
  drain : unit -> unit;
}

let sim_backend () =
  let sim = Sim.create () in
  let kind = Sim.Kind.register "test.fixed" in
  {
    now = (fun () -> Sim.now sim);
    at =
      (fun ~time f ->
        let h = Sim.schedule_at sim ~time f in
        fun () -> Sim.cancel sim h);
    fixed = (fun ~delay f -> Sim.schedule_fixed_k sim kind ~delay f);
    run_until = (fun until -> Sim.run ~until sim);
    drain = (fun () -> Sim.run sim);
  }

module Model_queue = Map.Make (struct
  type t = float * int

  let compare = compare
end)

(* A map from (time, seq) to (live flag, action). *)
let model_backend () =
  let now = ref 0. and seq = ref 0 and queue = ref Model_queue.empty in
  let add time f =
    let live = ref true in
    queue := Model_queue.add (time, !seq) (live, f) !queue;
    incr seq;
    live
  in
  let rec fire_until until =
    match Model_queue.min_binding_opt !queue with
    | Some (((time, _) as key), (live, f)) when time <= until ->
        queue := Model_queue.remove key !queue;
        now := time;
        if !live then f ();
        fire_until until
    | _ -> ()
  in
  {
    now = (fun () -> !now);
    at =
      (fun ~time f ->
        let live = add time f in
        fun () -> live := false);
    fixed = (fun ~delay f -> ignore (add (!now +. delay) f));
    run_until =
      (fun until ->
        fire_until until;
        now := Float.max !now until);
    drain = (fun () -> fire_until infinity);
  }

let fixed_delays = [| 0.; 0.25; 0.5; 1.; 1.5; 2.; 3.; 0.75 |]

let run_program backend (ops, horizon) =
  let log = ref [] in
  let next_id = ref 0 in
  let fire id () = log := (id, backend.now ()) :: !log in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let cancels = Queue.create () in
  List.iter
    (fun (op, a, b) ->
      let delay = fixed_delays.(b mod Array.length fixed_delays) in
      match op with
      | 0 | 1 | 2 ->
          let time =
            if op = 2 then float_of_int a /. 3. else float_of_int a /. 4.
          in
          Queue.add (backend.at ~time (fire (fresh ()))) cancels
      | 3 -> backend.fixed ~delay (fire (fresh ()))
      | 4 -> Option.iter (fun c -> c ()) (Queue.take_opt cancels)
      | _ ->
          let id = fresh () and tie = fresh () in
          let children = List.init (1 + (a mod 3)) (fun _ -> fresh ()) in
          backend.fixed ~delay (fun () ->
              fire id ();
              List.iteri
                (fun i child ->
                  backend.fixed
                    ~delay:
                      fixed_delays.((b + (i * a)) mod Array.length fixed_delays)
                    (fire child))
                children;
              let (_ : unit -> unit) =
                backend.at
                  ~time:(backend.now () +. (float_of_int (a mod 3) /. 4.))
                  (fire tie)
              in
              ()))
    ops;
  backend.run_until horizon;
  let at_horizon = (List.rev !log, backend.now ()) in
  backend.drain ();
  (at_horizon, List.rev !log, backend.now ())

let prop_sim_lanes_model =
  QCheck.Test.make ~name:"sim lanes match reference model" ~count:300
    QCheck.(
      pair
        (list_of_size
           Gen.(frequency [ (3, 0 -- 120); (1, 300 -- 1500) ])
           (triple (int_bound 5) (int_bound 400) (int_bound 7)))
        (int_bound 400))
    (fun (ops, h) ->
      let prog = (ops, float_of_int h /. 4.) in
      run_program (sim_backend ()) prog = run_program (model_backend ()) prog)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:0.3 (fun () -> log := 3 :: !log));
  ignore (Sim.schedule sim ~delay:0.1 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:0.2 (fun () -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "events in time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 0.3 (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:0.1 (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check bool) "cancelled" true (Sim.cancelled sim h)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.schedule sim ~delay:1. tick)
  in
  ignore (Sim.schedule sim ~delay:0. tick);
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "events up to horizon" 6 !count;
  check_float "clock parked at horizon" 5.5 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1. (fun () ->
         log := "outer" :: !log;
         ignore (Sim.schedule sim ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "final time" 1.5 (Sim.now sim)

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count = 3 then Sim.stop sim else ignore (Sim.schedule sim ~delay:1. tick)
  in
  ignore (Sim.schedule sim ~delay:0. tick);
  Sim.run ~until:100. sim;
  Alcotest.(check int) "stopped after three" 3 !count

(* Regression: scheduling at exactly the current instant is legal and
   fires after everything already queued at that time (ties break by
   sequence order). *)
let test_sim_schedule_at_now () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim ~time:0. (fun () -> log := "t0" :: !log));
  ignore
    (Sim.schedule sim ~delay:1. (fun () ->
         log := "a" :: !log;
         ignore
           (Sim.schedule_at sim ~time:(Sim.now sim) (fun () ->
                log := "c" :: !log))));
  ignore (Sim.schedule_at sim ~time:1. (fun () -> log := "b" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "now-events fire last at their instant"
    [ "t0"; "a"; "b"; "c" ] (List.rev !log);
  check_float "clock" 1. (Sim.now sim)

(* Cancellation recycles the slot immediately; a stale handle must
   never affect the event that reused its slot. *)
let test_sim_slot_reuse () =
  let sim = Sim.create () in
  let fired = ref [] in
  let h1 = Sim.schedule sim ~delay:0.1 (fun () -> fired := 1 :: !fired) in
  Sim.cancel sim h1;
  let _h2 = Sim.schedule sim ~delay:0.2 (fun () -> fired := 2 :: !fired) in
  Sim.cancel sim h1 (* stale: must be a no-op *);
  Alcotest.(check bool) "stale handle reads cancelled" true
    (Sim.cancelled sim h1);
  Sim.run sim;
  Alcotest.(check (list int)) "only the live event fired" [ 2 ]
    (List.rev !fired)

let test_kind_interning () =
  let a = Sim.Kind.register "test.kind.a" in
  let a' = Sim.Kind.register "test.kind.a" in
  let b = Sim.Kind.register "test.kind.b" in
  Alcotest.(check bool) "same label same id" true (Sim.Kind.equal a a');
  Alcotest.(check bool) "different labels differ" false (Sim.Kind.equal a b);
  Alcotest.(check string) "name round-trips" "test.kind.a" (Sim.Kind.name a);
  Alcotest.(check string) "unlabeled name" "(unlabeled)"
    (Sim.Kind.name Sim.Kind.unlabeled)

(* The schedule/pop path must not allocate: a self-rescheduling timer
   with a preallocated closure should see (amortised) zero minor words
   per event. *)
let test_sim_alloc_free () =
  let sim = Sim.create () in
  let n = 50_000 in
  let remaining = ref n in
  let tick = ref (fun () -> ()) in
  (tick :=
     fun () ->
       if !remaining > 0 then begin
         decr remaining;
         ignore (Sim.schedule sim ~delay:1e-6 !tick)
       end);
  ignore (Sim.schedule sim ~delay:0. !tick);
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per event < 2 (got %.3f)" per_event)
    true
    (per_event < 2.)

(* Lane events take the same allocation-free path: three fixed-delay
   chains on three lanes and a heap timer, all with preallocated
   closures, once the lanes have grown. *)
let test_sim_lane_alloc_free () =
  let sim = Sim.create () in
  let kind = Sim.Kind.register "test.lane" in
  let n = 50_000 in
  let remaining = ref 0 in
  let chain delay =
    let tick = ref (fun () -> ()) in
    (tick :=
       fun () ->
         if !remaining > 0 then begin
           decr remaining;
           Sim.schedule_fixed_k sim kind ~delay !tick
         end);
    !tick
  in
  let chains = [ chain 1e-6; chain 3e-6; chain 2.5e-6 ] in
  let timer = ref (fun () -> ()) in
  (timer :=
     fun () -> if !remaining > 0 then ignore (Sim.schedule_k sim kind ~delay:7e-6 !timer));
  let start () =
    List.iter (fun f -> Sim.schedule_fixed_k sim kind ~delay:0. f) chains;
    ignore (Sim.schedule_k sim kind ~delay:0. !timer)
  in
  (* Warm-up: make the lanes and grow every ring once. *)
  remaining := 1_000;
  start ();
  Sim.run sim;
  remaining := n;
  start ();
  let e0 = Sim.events_executed sim in
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let words = Gc.minor_words () -. w0 in
  let events = Sim.events_executed sim - e0 in
  Alcotest.(check bool)
    (Printf.sprintf "ran the chains (%d events)" events) true (events > n);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per event < 0.001 (got %.4f)"
       (words /. float_of_int events))
    true
    (words /. float_of_int events < 0.001)

(* [run ~until], the path every packet run takes, allocates nothing
   either: endless fixed-delay chains on three lanes and a heap timer,
   cut by a horizon. *)
let test_sim_until_alloc_free () =
  let sim = Sim.create () in
  let kind = Sim.Kind.register "test.lane" in
  let chain delay =
    let tick = ref (fun () -> ()) in
    (tick := fun () -> Sim.schedule_fixed_k sim kind ~delay !tick);
    !tick
  in
  let timer = ref (fun () -> ()) in
  (timer := fun () -> ignore (Sim.schedule_k sim kind ~delay:7e-6 !timer));
  List.iter
    (fun f -> Sim.schedule_fixed_k sim kind ~delay:0. f)
    [ chain 1e-6; chain 3e-6; chain 2.5e-6 ];
  ignore (Sim.schedule_k sim kind ~delay:0. !timer);
  (* Warm-up: make the lanes and grow every ring once. *)
  Sim.run ~until:1e-3 sim;
  let e0 = Sim.events_executed sim in
  let w0 = Gc.minor_words () in
  Sim.run ~until:0.05 sim;
  let words = Gc.minor_words () -. w0 in
  let events = Sim.events_executed sim - e0 in
  check_float "clock at the horizon" 0.05 (Sim.now sim);
  Alcotest.(check bool)
    (Printf.sprintf "ran to the horizon (%d events)" events) true (events > 50_000);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per event < 0.001 (got %.4f)"
       (words /. float_of_int events))
    true
    (words /. float_of_int events < 0.001)

(* Lane events count as pending until they fire; a cancelled heap
   event stays counted as a placeholder until it is popped. *)
let test_sim_lane_pending () =
  let sim = Sim.create () in
  let kind = Sim.Kind.register "test.lane" in
  let fired = ref 0 in
  let f () = incr fired in
  Sim.schedule_fixed_k sim kind ~delay:0.1 f;
  Sim.schedule_fixed_k sim kind ~delay:0.1 f;
  Sim.schedule_fixed_k sim kind ~delay:0.2 f;
  let h = Sim.schedule sim ~delay:0.1 f in
  Alcotest.(check int) "pending counts lanes" 4 (Sim.pending sim);
  Sim.cancel sim h;
  Alcotest.(check int) "pending keeps placeholder" 4 (Sim.pending sim);
  Sim.run ~until:0.15 sim;
  Alcotest.(check int) "two lane events fired" 2 !fired;
  Alcotest.(check int) "one pending" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "all fired" 3 !fired;
  Alcotest.(check int) "empty after run" 0 (Sim.pending sim);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule_fixed_k sim kind ~delay:(-1.) f);
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule_fixed_k sim kind ~delay:Float.nan f)

let test_sim_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:1. (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1.) (fun () -> ())));
  match
    try
      ignore (Sim.schedule_at sim ~time:0.5 (fun () -> ()));
      `No_exn
    with Invalid_argument _ -> `Raised
  with
  | `Raised -> ()
  | `No_exn -> Alcotest.fail "schedule_at in the past must raise"

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.float a and xb = Rng.float b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:0.02
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean ~0.02 (got %g)" mean)
    true
    (abs_float (mean -. 0.02) < 0.001)

let test_rng_derangement () =
  let rng = Rng.create 5 in
  for n = 2 to 20 do
    let d = Rng.derangement rng n in
    Array.iteri
      (fun i v -> if i = v then Alcotest.failf "fixed point at %d (n=%d)" i n)
      d;
    let sorted = Array.copy d in
    Array.sort compare sorted;
    Array.iteri (fun i v -> Alcotest.(check int) "is a permutation" i v) sorted
  done

let prop_rng_uniform_range =
  QCheck.Test.make ~name:"uniform stays in range" ~count:500
    QCheck.(pair (float_bound_exclusive 100.) pos_float)
    (fun (lo, width) ->
      QCheck.assume (width > 0. && width < 1e9);
      let rng = Rng.create 13 in
      let v = Rng.uniform rng lo (lo +. width) in
      v >= lo && v < lo +. width)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check_float "mean of empty" 0. (Stats.mean [||])

let test_stats_percentile () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  check_float "p50" 2.5 (Stats.percentile xs 50.);
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 4. (Stats.percentile xs 100.);
  check_float "p25" 1.75 (Stats.percentile xs 25.)

let test_stats_cdf () =
  let c = Stats.cdf [| 1.; 2.; 2.; 4. |] in
  check_float "below support" 0. (Stats.cdf_at c 0.5);
  check_float "at 1" 0.25 (Stats.cdf_at c 1.);
  check_float "at 2" 0.75 (Stats.cdf_at c 2.);
  check_float "above support" 1. (Stats.cdf_at c 10.)

let test_stats_fraction () =
  check_float "fraction" 0.5 (Stats.fraction (fun x -> x > 0) [| 1; -1; 2; -2 |]);
  check_float "empty" 0. (Stats.fraction (fun _ -> true) [||])

let test_stats_single_sample () =
  let xs = [| 7.5 |] in
  check_float "p50 of one" 7.5 (Stats.percentile xs 50.);
  check_float "p0 of one" 7.5 (Stats.percentile xs 0.);
  check_float "p99 of one" 7.5 (Stats.percentile xs 99.);
  let c = Stats.cdf xs in
  Alcotest.(check int) "cdf one point" 1 (Array.length c);
  check_float "cdf below" 0. (Stats.cdf_at c 7.);
  check_float "cdf at sample" 1. (Stats.cdf_at c 7.5)

let test_stats_tally_counts () =
  let t = Stats.Tally.create () in
  Stats.Tally.incr t "y";
  Stats.Tally.incr t "x";
  Stats.Tally.incr t "x";
  Alcotest.(check int) "count" 2 (Stats.Tally.count t "x");
  Alcotest.(check int) "never incremented" 0 (Stats.Tally.count t "z");
  Alcotest.(check (list (pair string int)))
    "sorted by key" [ ("x", 2); ("y", 1) ] (Stats.Tally.to_list t);
  Alcotest.(check int) "total" 3 (Stats.Tally.total t)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
              (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let lo, hi = Stats.min_max arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Series *)

let test_series_bin_mean () =
  let s = Series.create () in
  Series.add s 0.05 10.;
  Series.add s 0.15 20.;
  Series.add s 0.17 40.;
  let bins = Series.bin_mean s ~width:0.1 ~t_end:0.3 in
  Alcotest.(check int) "bins" 3 (Array.length bins);
  check_float "bin0 mean" 10. (snd bins.(0));
  check_float "bin1 mean" 30. (snd bins.(1));
  check_float "bin2 empty" 0. (snd bins.(2))

let test_series_integrate_rate () =
  let s = Series.create () in
  Series.add s 0.05 100.;
  Series.add s 0.06 100.;
  let bins = Series.integrate_rate s ~width:0.1 ~t_end:0.1 in
  check_float "rate" 2000. (snd bins.(0))

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units () =
  check_float "gbps" 1e9 (Units.gbps 1.);
  Alcotest.(check int) "kbyte" 2000 (Units.kbyte 2.);
  Alcotest.(check int) "mbyte" 4_000_000 (Units.mbyte 4.);
  check_float "us" 1.5e-5 (Units.us 15.);
  (* 1500 bytes at 1 Gbps = 12 microseconds. *)
  check_float "tx_time" 12e-6 (Units.tx_time ~bytes:1500 ~rate:(Units.gbps 1.))

(* ------------------------------------------------------------------ *)
(* Int_table *)

type table_op =
  | Put of int * int
  | Del of int
  | Get of int
  | Has of int
  | Len
  | Fold
  | Clear

let show_table_op = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Del k -> Printf.sprintf "del %d" k
  | Get k -> Printf.sprintf "get %d" k
  | Has k -> Printf.sprintf "has %d" k
  | Len -> "len"
  | Fold -> "fold"
  | Clear -> "clear"

(* Keys as the callers make them: dense flow ids, subflow ids from
   1,000,000 up, and the ints a sentinel-keyed table gets wrong. *)
let table_key =
  QCheck.Gen.(
    frequency
      [
        (4, int_bound 40);
        (2, map (fun i -> 1_000_000 + i) (int_bound 40));
        (2, map (fun i -> -1 - i) (int_bound 40));
        (1, oneofl [ min_int; min_int + 1; max_int; max_int - 1; 0 ]);
      ])

let table_op =
  QCheck.Gen.(
    frequency
      [
        (120, map2 (fun k v -> Put (k, v)) table_key small_nat);
        (45, map (fun k -> Del k) table_key);
        (45, map (fun k -> Get k) table_key);
        (30, map (fun k -> Has k) table_key);
        (15, return Len);
        (15, return Fold);
        (1, return Clear);
      ])

(* The table against [Hashtbl] as a reference model, observed after
   every operation. Puts outnumber removals and a clear is rare, so a
   table created for no binding holds most of the 127 keys at a time:
   it doubles from 8 slots to 256 on the way. *)
let prop_int_table_model =
  QCheck.Test.make ~name:"int table matches Hashtbl" ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_table_op ops))
        ~shrink:Shrink.list
        Gen.(list_size (int_range 1 600) table_op))
    (fun ops ->
      let t = Int_table.create 0 and model = Hashtbl.create 8 in
      let bindings fold tbl =
        List.sort compare (fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      List.for_all
        (fun op ->
          (match op with
          | Put (k, v) ->
              Int_table.replace t k v;
              Hashtbl.replace model k v;
              true
          | Del k ->
              Int_table.remove t k;
              Hashtbl.remove model k;
              true
          | Get k ->
              (match Int_table.find t k with
              | v -> Some v
              | exception Not_found -> None)
              = Hashtbl.find_opt model k
          | Has k -> Int_table.mem t k = Hashtbl.mem model k
          | Len -> true
          | Fold -> bindings Int_table.fold t = bindings Hashtbl.fold model
          | Clear ->
              Int_table.clear t;
              Hashtbl.reset model;
              true)
          && Int_table.length t = Hashtbl.length model)
        ops)

(* Removal moves the rest of a probe run back. Less than half full, a
   thousand keys make many runs longer than two slots, so removing
   every other key removes from the middle of runs; every key left must
   still be found, and every key removed must be gone. *)
let test_int_table_remove_mid_run () =
  let keys = Array.init 1000 (fun i -> (i * 7919) - 500_000) in
  let t = Int_table.create 0 in
  Array.iter (fun k -> Int_table.replace t k (-k)) keys;
  Array.iteri (fun i k -> if i mod 2 = 0 then Int_table.remove t k) keys;
  Alcotest.(check int) "length" 500 (Int_table.length t);
  Array.iteri
    (fun i k ->
      if i mod 2 = 0 then
        Alcotest.(check bool) (Printf.sprintf "%d removed" k) false
          (Int_table.mem t k)
      else
        Alcotest.(check int) (Printf.sprintf "%d found" k) (-k)
          (Int_table.find t k))
    keys

(* A lookup, hit or miss, allocates nothing, also on float values: the
   table keeps each float's box, where [Hashtbl.find_opt] allocates a
   [Some]. *)
let test_int_table_find_alloc_free () =
  let t = Int_table.create 0 in
  for k = -50 to 50 do
    Int_table.replace t (1_000_000 * k) (float_of_int k *. 0.5)
  done;
  Int_table.replace t min_int 1.5;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    for k = -60 to 60 do
      (match Int_table.find t (1_000_000 * k) with
      | v -> ignore (Sys.opaque_identity v)
      | exception Not_found -> ());
      ignore (Sys.opaque_identity (Int_table.mem t k))
    done;
    ignore (Sys.opaque_identity (Int_table.find t min_int))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words for 24,300 lookups" 0. words

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "engine.sim",
      [
        Alcotest.test_case "time ordering" `Quick test_sim_ordering;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "run until" `Quick test_sim_until;
        Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
        Alcotest.test_case "stop" `Quick test_sim_stop;
        Alcotest.test_case "schedule at now" `Quick test_sim_schedule_at_now;
        Alcotest.test_case "slot reuse after cancel" `Quick
          test_sim_slot_reuse;
        Alcotest.test_case "kind interning" `Quick test_kind_interning;
        Alcotest.test_case "allocation-free schedule path" `Quick
          test_sim_alloc_free;
        Alcotest.test_case "past times rejected" `Quick test_sim_past_rejected;
        Alcotest.test_case "allocation-free lanes" `Quick
          test_sim_lane_alloc_free;
        Alcotest.test_case "lane events pending" `Quick test_sim_lane_pending;
        Alcotest.test_case "allocation-free run until" `Quick
          test_sim_until_alloc_free;
      ]
      @ qsuite [ prop_sim_schedule_cancel_model; prop_sim_lanes_model ] );
    ( "engine.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "derangement" `Quick test_rng_derangement;
      ]
      @ qsuite [ prop_rng_uniform_range ] );
    ( "engine.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "percentiles" `Quick test_stats_percentile;
        Alcotest.test_case "cdf" `Quick test_stats_cdf;
        Alcotest.test_case "fraction" `Quick test_stats_fraction;
        Alcotest.test_case "single sample" `Quick test_stats_single_sample;
        Alcotest.test_case "tally counts" `Quick test_stats_tally_counts;
      ]
      @ qsuite [ prop_percentile_bounds ] );
    ( "engine.series",
      [
        Alcotest.test_case "bin mean" `Quick test_series_bin_mean;
        Alcotest.test_case "integrate rate" `Quick test_series_integrate_rate;
      ] );
    ("engine.units", [ Alcotest.test_case "conversions" `Quick test_units ]);
    ( "engine.int_table",
      [
        Alcotest.test_case "remove from the middle of a run" `Quick
          test_int_table_remove_mid_run;
        Alcotest.test_case "allocation-free lookup" `Quick
          test_int_table_find_alloc_free;
      ]
      @ qsuite [ prop_int_table_model ] );
  ]
