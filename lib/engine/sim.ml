(* Discrete-event core, structure-of-arrays edition.

   The event queue is a binary min-heap on (time, seq) kept in four
   parallel arrays — an unboxed [float array] for times and int arrays
   for sequence numbers, slot indices and generation stamps — so heap
   maintenance touches flat memory and never chases per-event records.

   Event state (the action closure, its kind, its generation) lives in
   a slot store indexed by small ints. A handle is an immediate int
   packing the slot index with the slot's generation at scheduling
   time; cancellation bumps the generation and recycles the slot
   immediately, so the heap node left behind is recognised as dead by
   its stale generation when popped. Firing an event also bumps the
   generation before running the action, which makes [cancelled]
   truthful after the fact and lets the action itself reschedule into
   the freed slot.

   The virtual clock lives in a one-element [float array]: a mutable
   float field in this mixed record would be boxed and every write
   would allocate, which at one write per event is the difference
   between an allocation-free pop and 2 words of garbage each.

   Beside the heap sit a few FIFO lanes. A lane holds the events
   scheduled with one fixed relative delay ([schedule_fixed_k]). The
   clock never goes back and [seq] only grows, so each lane is already
   sorted by (time, seq) and is a plain ring: pushing and popping are
   O(1). [step] fires the (time, seq)-least of the heap root and the
   lane heads, which is the order a single heap would give. Lane events
   cannot be cancelled, so they take no slot and no generation. *)

module Kind = Kind

(* One lane: a ring of [l_len] events from [l_head] on, oldest first.
   Capacities are powers of two. *)
type lane = {
  mutable l_time : float array;
  mutable l_seq : int array;
  mutable l_kind : int array;
  mutable l_action : (unit -> unit) array;
  mutable l_head : int;
  mutable l_len : int;
}

type t = {
  clock : float array; (* length 1: current virtual time, unboxed *)
  tscratch : float array;
      (* length 1: carries the event time from schedule/schedule_at
         into the push path. Passing it as a float argument would box
         it on every call (the compiler only unboxes float arguments
         across inlined calls); a store into a float array does not. *)
  (* Heap, structure-of-arrays; [h_size] nodes in heap order. *)
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable h_gen : int array;
  mutable h_size : int;
  mutable next_seq : int;
  (* Slot store; [s_top] slots ever handed out. *)
  mutable s_action : (unit -> unit) array;
  mutable s_gen : int array;
  mutable s_kind : int array;
  mutable s_top : int;
  (* Stack of recycled slot indices. *)
  mutable free : int array;
  mutable free_top : int;
  (* Lanes; both arrays stay empty until the first [schedule_fixed_k].
     [lane_delay.(i)] keys [lanes.(i)]. *)
  mutable lanes : lane array;
  mutable lane_delay : float array;
  mutable lane_count : int; (* events in all lanes *)
  mutable stopped : bool;
  mutable executed : int;
  mutable profiler : Profiler.slot option;
      (* This domain's shard of the attached profiler; recording into
         it is lock-free and domain-private. *)
  cancel : cancel option;
}

(* Cooperative cancellation: the hook runs on this simulator's domain
   every [every] executed events; returning [Some reason] aborts the
   run by raising {!Cancelled} out of [step]. *)
and cancel = {
  every : int;
  hook : t -> string option;
  mutable countdown : int;
}

type handle = int

(* Handle layout: slot index in the low 30 bits, generation above.
   Generations wrap at 2^32 per slot; a stale handle aliasing a live
   event needs 4 billion reuses of one slot between cancel attempts. *)
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 32) - 1

exception Cancelled of { reason : string; events : int }

let () =
  Printexc.register_printer (function
    | Cancelled { reason; events } ->
        Some
          (Printf.sprintf "Pdq_engine.Sim.Cancelled(%s after %d events)"
             reason events)
    | _ -> None)

let check_every = 1024

(* Default cancellation hooks for simulators that have not been created
   yet: a supervisor installs a per-attempt budget here and every
   [create] during the attempt picks it up. The DLS default scopes to
   the installing domain (each sweep worker budgets its own slot); the
   global default covers every domain (whole-process deadlines, e.g.
   bench --timeout, whose sweeps spawn their own workers). *)
let dls_default : (int * (t -> string option)) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let global_default : (int * (t -> string option)) option Atomic.t =
  Atomic.make None

let with_default_cancel ~every hook fn =
  let prev = Domain.DLS.get dls_default in
  Domain.DLS.set dls_default (Some (every, hook));
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_default prev) fn

let set_global_cancel hook =
  Atomic.set global_default (Some (check_every, hook))

let clear_global_cancel () = Atomic.set global_default None

let cancel_of = function
  | None -> None
  | Some (every, hook) ->
      let every = Int.max 1 every in
      Some { every; hook; countdown = every }

let noop () = ()
let initial_capacity = 256

let create () =
  {
    clock = [| 0. |];
    tscratch = [| 0. |];
    h_time = Array.make initial_capacity 0.;
    h_seq = Array.make initial_capacity 0;
    h_slot = Array.make initial_capacity 0;
    h_gen = Array.make initial_capacity 0;
    h_size = 0;
    next_seq = 0;
    s_action = Array.make initial_capacity noop;
    s_gen = Array.make initial_capacity 0;
    s_kind = Array.make initial_capacity 0;
    s_top = 0;
    free = Array.make initial_capacity 0;
    free_top = 0;
    lanes = [||];
    lane_delay = [||];
    lane_count = 0;
    stopped = false;
    executed = 0;
    profiler = Option.map Profiler.slot (Profiler.global ());
    cancel =
      cancel_of
        (match Domain.DLS.get dls_default with
        | Some _ as d -> d
        | None -> Atomic.get global_default);
  }

let set_profiler t p = t.profiler <- Option.map Profiler.slot p

let events_executed t = t.executed
let stop t = t.stopped <- true
let now t = t.clock.(0)

(* ------------------------------------------------------------------ *)
(* Slot store. *)

let slots_grow t =
  let cap = Array.length t.s_action in
  let ncap = 2 * cap in
  let action = Array.make ncap noop in
  let gen = Array.make ncap 0 in
  let kind = Array.make ncap 0 in
  let free = Array.make ncap 0 in
  Array.blit t.s_action 0 action 0 cap;
  Array.blit t.s_gen 0 gen 0 cap;
  Array.blit t.s_kind 0 kind 0 cap;
  Array.blit t.free 0 free 0 cap;
  t.s_action <- action;
  t.s_gen <- gen;
  t.s_kind <- kind;
  t.free <- free

let alloc_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    if t.s_top = Array.length t.s_action then slots_grow t;
    let s = t.s_top in
    t.s_top <- s + 1;
    s
  end

(* Retire a slot: bump the generation (invalidating every outstanding
   handle and heap node pointing at it), drop the closure so it can be
   collected, and recycle the index. *)
let retire_slot t slot gen =
  t.s_gen.(slot) <- (gen + 1) land gen_mask;
  t.s_action.(slot) <- noop;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* ------------------------------------------------------------------ *)
(* Heap maintenance. Min on (time, seq): seq is the global scheduling
   order, so ties fire first-scheduled-first — the determinism
   contract every figure depends on. *)

let heap_grow t =
  let cap = Array.length t.h_time in
  let ncap = 2 * cap in
  let time = Array.make ncap 0. in
  let seq = Array.make ncap 0 in
  let slot = Array.make ncap 0 in
  let gen = Array.make ncap 0 in
  Array.blit t.h_time 0 time 0 cap;
  Array.blit t.h_seq 0 seq 0 cap;
  Array.blit t.h_slot 0 slot 0 cap;
  Array.blit t.h_gen 0 gen 0 cap;
  t.h_time <- time;
  t.h_seq <- seq;
  t.h_slot <- slot;
  t.h_gen <- gen

(* Push the event whose time sits in [t.tscratch.(0)]: allocate a
   slot, then sift up, moving parents down until (time, seq) fits. *)
let do_schedule t kind f =
  let time = t.tscratch.(0) in
  if time < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time
         t.clock.(0));
  let slot = alloc_slot t in
  let gen = t.s_gen.(slot) in
  t.s_action.(slot) <- f;
  t.s_kind.(slot) <- Kind.to_int kind;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.h_size = Array.length t.h_time then heap_grow t;
  (* Indices below stay within [0, h_size] by construction (the heap
     was grown above if full), so the sift uses unsafe accesses — this
     loop and its sift-down twin dominate the per-event cost. *)
  let ht = t.h_time and hq = t.h_seq and hs = t.h_slot and hg = t.h_gen in
  let i = ref t.h_size in
  t.h_size <- t.h_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = Array.unsafe_get ht p in
    if time < tp || (time = tp && seq < Array.unsafe_get hq p) then begin
      Array.unsafe_set ht !i tp;
      Array.unsafe_set hq !i (Array.unsafe_get hq p);
      Array.unsafe_set hs !i (Array.unsafe_get hs p);
      Array.unsafe_set hg !i (Array.unsafe_get hg p)
    end
    else continue := false;
    if !continue then i := p
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hq !i seq;
  Array.unsafe_set hs !i slot;
  Array.unsafe_set hg !i gen;
  slot lor (gen lsl slot_bits)

(* Remove the root: move the last node into a hole sifted down from the
   root. The popped node's fields must be read out before calling. *)
let heap_remove_root t =
  let n = t.h_size - 1 in
  t.h_size <- n;
  if n > 0 then begin
    (* [l], [r], [c] and [!i] are all [< n <= capacity]; unsafe
       accesses, same argument as the sift-up. *)
    let ht = t.h_time and hq = t.h_seq and hs = t.h_slot and hg = t.h_gen in
    let time = Array.unsafe_get ht n and seq = Array.unsafe_get hq n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let tl = Array.unsafe_get ht l in
        let c =
          if
            r < n
            && (let tr = Array.unsafe_get ht r in
                tr < tl
                || (tr = tl && Array.unsafe_get hq r < Array.unsafe_get hq l))
          then r
          else l
        in
        let tc = Array.unsafe_get ht c in
        if tc < time || (tc = time && Array.unsafe_get hq c < seq) then begin
          Array.unsafe_set ht !i tc;
          Array.unsafe_set hq !i (Array.unsafe_get hq c);
          Array.unsafe_set hs !i (Array.unsafe_get hs c);
          Array.unsafe_set hg !i (Array.unsafe_get hg c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set ht !i (Array.unsafe_get ht n);
    Array.unsafe_set hq !i (Array.unsafe_get hq n);
    Array.unsafe_set hs !i (Array.unsafe_get hs n);
    Array.unsafe_set hg !i (Array.unsafe_get hg n)
  end

(* ------------------------------------------------------------------ *)

(* [_k] variants take the kind positionally: a [~kind] optional
   argument would make every labeled call site allocate a [Some] cell
   (non-flambda builds cannot eliminate it), which is exactly the
   per-event garbage this core exists to avoid. Labeled events go
   through these; the plain variants below schedule unlabeled ones. *)
let schedule_at_k t kind ~time f =
  t.tscratch.(0) <- time;
  do_schedule t kind f

let schedule_k t kind ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  t.tscratch.(0) <- t.clock.(0) +. delay;
  do_schedule t kind f

let schedule_at t ~time f = schedule_at_k t Kind.unlabeled ~time f
let schedule t ~delay f = schedule_k t Kind.unlabeled ~delay f

(* ------------------------------------------------------------------ *)
(* Lanes. A delay takes the lane keyed by it, else an empty lane, which
   is re-keyed; when every lane is busy with other delays, the event
   goes to the heap. Any choice keeps the order exact: a lane only needs
   all its events to share one delay. *)

let max_lanes = 4
let lane_capacity = 16

let new_lane () =
  {
    l_time = Array.make lane_capacity 0.;
    l_seq = Array.make lane_capacity 0;
    l_kind = Array.make lane_capacity 0;
    l_action = Array.make lane_capacity noop;
    l_head = 0;
    l_len = 0;
  }

(* Double a full lane, unrolling the ring to start at index 0. *)
let lane_grow l =
  let cap = Array.length l.l_seq in
  let first = cap - l.l_head in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a l.l_head b 0 first;
    Array.blit a 0 b first l.l_head;
    b
  in
  l.l_time <- unroll l.l_time 0.;
  l.l_seq <- unroll l.l_seq 0;
  l.l_kind <- unroll l.l_kind 0;
  l.l_action <- unroll l.l_action noop;
  l.l_head <- 0

(* Index of the lane for [delay], or -1 for the heap. *)
let lane_for t delay =
  let n = Array.length t.lanes in
  let i = ref 0 in
  while !i < n && Array.unsafe_get t.lane_delay !i <> delay do
    incr i
  done;
  if !i < n then !i
  else begin
    let i = ref 0 in
    while !i < n && (Array.unsafe_get t.lanes !i).l_len > 0 do
      incr i
    done;
    if !i = n then -1
    else begin
      t.lane_delay.(!i) <- delay;
      !i
    end
  end

let schedule_fixed_k t kind ~delay f =
  if not (delay >= 0.) then invalid_arg "Sim.schedule: negative delay";
  if Array.length t.lanes = 0 then begin
    t.lanes <- Array.init max_lanes (fun _ -> new_lane ());
    t.lane_delay <- Array.make max_lanes 0.
  end;
  let i = lane_for t delay in
  if i < 0 then begin
    t.tscratch.(0) <- t.clock.(0) +. delay;
    ignore (do_schedule t kind f)
  end
  else begin
    let l = Array.unsafe_get t.lanes i in
    if l.l_len = Array.length l.l_seq then lane_grow l;
    let j = (l.l_head + l.l_len) land (Array.length l.l_seq - 1) in
    Array.unsafe_set l.l_time j (t.clock.(0) +. delay);
    Array.unsafe_set l.l_seq j t.next_seq;
    Array.unsafe_set l.l_kind j (Kind.to_int kind);
    Array.unsafe_set l.l_action j f;
    t.next_seq <- t.next_seq + 1;
    l.l_len <- l.l_len + 1;
    t.lane_count <- t.lane_count + 1
  end

(* Remove lane [l]'s head, which the caller has read, and return its
   action. *)
let lane_pop t l =
  let h = l.l_head in
  let f = Array.unsafe_get l.l_action h in
  Array.unsafe_set l.l_action h noop;
  l.l_head <- (h + 1) land (Array.length l.l_seq - 1);
  l.l_len <- l.l_len - 1;
  t.lane_count <- t.lane_count - 1;
  f

let heap_src = -1
let no_src = -2

(* Where the (time, seq)-least pending event sits: [heap_src] for the
   heap root, a lane index, or [no_src] when nothing is pending. A
   lane's head is its minimum. *)
let next_source t =
  let best = ref (if t.h_size > 0 then heap_src else no_src) in
  if t.lane_count > 0 then begin
    let bt = ref (Array.unsafe_get t.h_time 0)
    and bq = ref (Array.unsafe_get t.h_seq 0) in
    for i = 0 to Array.length t.lanes - 1 do
      let l = Array.unsafe_get t.lanes i in
      if l.l_len > 0 then begin
        let h = l.l_head in
        let tm = Array.unsafe_get l.l_time h
        and q = Array.unsafe_get l.l_seq h in
        if !best = no_src || tm < !bt || (tm = !bt && q < !bq) then begin
          best := i;
          bt := tm;
          bq := q
        end
      end
    done
  end;
  !best

let cancel t h =
  let slot = h land slot_mask and gen = h lsr slot_bits in
  if slot < t.s_top && t.s_gen.(slot) = gen then retire_slot t slot gen

let cancelled t h =
  let slot = h land slot_mask and gen = h lsr slot_bits in
  not (slot < t.s_top && t.s_gen.(slot) = gen)

let pending t = t.h_size + t.lane_count

(* One decrement per executed event; the hook itself only runs every
   [every] events, so an installed budget costs almost nothing and an
   uninstalled one is a single [match] per step. *)
let check_cancel t =
  match t.cancel with
  | None -> ()
  | Some c ->
      c.countdown <- c.countdown - 1;
      if c.countdown <= 0 then begin
        c.countdown <- c.every;
        match c.hook t with
        | None -> ()
        | Some reason -> raise (Cancelled { reason; events = t.executed })
      end

(* Run [f], an event of kind [kind], timing it when a profiler is
   attached. *)
let run_event t prof f kind =
  (match prof with
  | None -> f ()
  | Some p ->
      (* [Unix.gettimeofday] (vdso, ~40 ns) instead of [Sys.time] (a
         [times] syscall, ~6x dearer per call): two stamps per event
         would otherwise dominate profiled runs. *)
      let t0 = Unix.gettimeofday () in
      f ();
      Profiler.record_event p ~kind:(Kind.of_int kind)
        ~cpu:(Unix.gettimeofday () -. t0));
  t.executed <- t.executed + 1;
  check_cancel t

(* Fire the event at [src], which is not [no_src]. The profiler work
   (queue high-water mark before the pop, time advanced, cancelled
   pops, per-kind time) runs only when one is attached. [time] stays an
   unboxed local: it is boxed, if at all, only on the profiled call. *)
let fire t src =
  let prof = t.profiler in
  (match prof with Some p -> Profiler.observe_queue p (pending t) | None -> ());
  if src = heap_src then begin
    let time = Array.unsafe_get t.h_time 0
    and slot = Array.unsafe_get t.h_slot 0
    and gen = Array.unsafe_get t.h_gen 0 in
    heap_remove_root t;
    (match prof with
    | Some p -> Profiler.record_advance p (time -. Array.unsafe_get t.clock 0)
    | None -> ());
    Array.unsafe_set t.clock 0 time;
    if Array.unsafe_get t.s_gen slot = gen then begin
      let f = Array.unsafe_get t.s_action slot
      and kind = Array.unsafe_get t.s_kind slot in
      retire_slot t slot gen;
      run_event t prof f kind
    end
    else match prof with Some p -> Profiler.record_cancelled p | None -> ()
  end
  else begin
    let l = Array.unsafe_get t.lanes src in
    let h = l.l_head in
    let time = Array.unsafe_get l.l_time h and kind = Array.unsafe_get l.l_kind h in
    (match prof with
    | Some p -> Profiler.record_advance p (time -. Array.unsafe_get t.clock 0)
    | None -> ());
    Array.unsafe_set t.clock 0 time;
    run_event t prof (lane_pop t l) kind
  end

let step t =
  let src = next_source t in
  if src = no_src then false
  else begin
    fire t src;
    true
  end

let run ?until t =
  t.stopped <- false;
  match until with
  | None -> while (not t.stopped) && step t do () done
  | Some horizon ->
      let continue = ref true in
      while !continue && not t.stopped do
        let src = next_source t in
        (* The head time is read here, not returned by a helper: a float
           returned from a call that is not inlined is boxed, 2 words
           per event. *)
        if
          src <> no_src
          && (if src = heap_src then Array.unsafe_get t.h_time 0
              else
                let l = Array.unsafe_get t.lanes src in
                Array.unsafe_get l.l_time l.l_head)
             <= horizon
        then fire t src
        else begin
          t.clock.(0) <- Float.max t.clock.(0) horizon;
          continue := false
        end
      done
