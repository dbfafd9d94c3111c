module Rng = Pdq_engine.Rng

type criticality_mode = Perfect | Random_criticality | Size_estimation of int

type pdq_opts = {
  early_termination : bool;
  aging_rate : float option;
  criticality : criticality_mode;
}

let pdq_defaults =
  { early_termination = true; aging_rate = None; criticality = Perfect }

type proto = Pdq of pdq_opts | Rcp | D3

type flow_spec = {
  fs_id : int;
  path : int array;
  size : int;
  deadline : float option;
  start : float;
}

type flow_result = {
  spec : flow_spec;
  fct : float option;
  met_deadline : bool;
  terminated : bool;
}

type result = {
  flows : flow_result array;
  application_throughput : float;
  mean_fct : float;
  max_fct : float;
  completed : int;
}

type net = { capacity : float array }

let net_of_topology topo =
  {
    capacity =
      Array.init
        (Pdq_net.Topology.link_count topo)
        (Pdq_net.Topology.link_rate topo);
  }

let bits_of_bytes b = 8. *. float_of_int b

(* Stdlib's [min]/[max] on floats, without the polymorphic compare:
   same results, NaN and signed zeros included. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

(* One [run]'s state, allocated once and reused by every step: runs on
   different domains never share one. Per-flow arrays are indexed by
   the flow's position in the spec list ([idx]); sizes are tracked in
   bits of goodput. *)
type workspace = {
  specs : flow_spec array;
  id : int array; (* [fs_id] *)
  paths : int array array;
  nic : float array; (* min capacity along the path: max possible rate *)
  remaining : float array; (* goodput bits *)
  rate : float array;
  waited : float array; (* cumulative paused time (aging) *)
  done_at : float array; (* completion time; NaN while unfinished *)
  deadline_abs : float array; (* read only where [has_deadline] *)
  has_deadline : bool array;
  dead : bool array; (* early-terminated / quenched *)
  est_level : int array; (* size-estimation criticality level *)
  (* PDQ's sort key, compared in this order and then by [id]. Perfect:
     class 0 with a deadline and 1 without, the deadline (0 without one)
     and the aged ttx. Random_criticality: (0, 0, the random priority).
     Size_estimation: (est_level, 0, 0). *)
  key_class : int array;
  key_deadline : float array;
  key_ttx : float array;
  active : int array; (* live [idx]s in admission order, oldest first *)
  mutable n_active : int;
  order : int array;
      (* PDQ: the previous step's flows most critical first, kept across
         steps; [order.(0 .. n_order - 1)] *)
  mutable n_order : int;
  changed : int array; (* PDQ: flows to re-sort this step *)
  tmp : int array; (* merge sort scratch *)
  residual : float array; (* per link: PDQ/RCP residual, D3 available *)
  count : int array; (* per link: RCP unassigned flows, D3 flows *)
  demand : float array; (* per link: D3 requests *)
}

(* Infeasibility check for Early Termination / quenching. *)
let[@inline] infeasible ws i ~now =
  ws.has_deadline.(i)
  &&
  let d = ws.deadline_abs.(i) in
  now >= d || now +. (ws.remaining.(i) /. ws.nic.(i)) > d

(* PDQ's criticality order. [Float.compare] orders floats, NaN
   included, as the polymorphic [compare] does; the unique id makes it
   total. *)
let by_key ws i j =
  match Int.compare ws.key_class.(i) ws.key_class.(j) with
  | 0 -> (
      match Float.compare ws.key_deadline.(i) ws.key_deadline.(j) with
      | 0 -> (
          match Float.compare ws.key_ttx.(i) ws.key_ttx.(j) with
          | 0 -> Int.compare ws.id.(i) ws.id.(j)
          | c -> c)
      | c -> c)
  | c -> c

(* Recompute the moving part of flow [i]'s key; true if it changed. *)
let refresh_key ws opts i =
  match opts.criticality with
  | Random_criticality -> false
  | Size_estimation _ ->
      let l = ws.est_level.(i) in
      l <> ws.key_class.(i)
      && begin
           ws.key_class.(i) <- l;
           true
         end
  | Perfect ->
      let ttx = ws.remaining.(i) /. ws.nic.(i) in
      let ttx =
        match opts.aging_rate with
        | Some alpha ->
            Pdq_core.Criticality.aged_tx_time ~aging_rate:alpha
              ~wait:ws.waited.(i) ~expected_tx_time:ttx
        | None -> ttx
      in
      Float.compare ttx ws.key_ttx.(i) <> 0
      && begin
           ws.key_ttx.(i) <- ttx;
           true
         end

(* Merge the sorted runs [dst.(lo .. mid - 1)] and [src.(0 .. n - 1)]
   into [dst.(lo .. mid + n - 1)], from the back: once [src] is placed,
   the rest of the first run already is. *)
let merge ws dst ~lo ~mid src n =
  let i = ref (mid - 1) and j = ref (n - 1) in
  while !j >= 0 do
    let k = !i + !j + 1 in
    if !i >= lo && by_key ws dst.(!i) src.(!j) > 0 then begin
      dst.(k) <- dst.(!i);
      decr i
    end
    else begin
      dst.(k) <- src.(!j);
      decr j
    end
  done

(* Merge sort of [a.(lo .. hi - 1)] by [by_key], with [ws.tmp] as
   scratch. *)
let rec sort ws a lo hi =
  if hi - lo <= 8 then
    for k = lo + 1 to hi - 1 do
      let x = a.(k) in
      let j = ref (k - 1) in
      while !j >= lo && by_key ws a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort ws a lo mid;
    sort ws a mid hi;
    if by_key ws a.(mid - 1) a.(mid) > 0 then begin
      Array.blit a mid ws.tmp 0 (hi - mid);
      merge ws a ~lo ~mid ws.tmp (hi - mid)
    end
  end

(* Bring [order] up to date with this step's keys and live flows. The
   flows whose key did not move stay sorted; only the moved ones and
   the flows admitted since [active.(admitted)] are sorted, then the two
   runs are merged. [by_key] is total, so this is the order a fresh sort
   gives. With aging every paused key moves, so it is one full sort. *)
let pdq_order ws opts ~admitted =
  let { order; changed; _ } = ws in
  let kept = ref 0 and moved = ref 0 in
  for j = 0 to ws.n_order - 1 do
    let i = order.(j) in
    if (not ws.dead.(i)) && Float.is_nan ws.done_at.(i) then
      if refresh_key ws opts i then begin
        changed.(!moved) <- i;
        incr moved
      end
      else begin
        order.(!kept) <- i;
        incr kept
      end
  done;
  for j = admitted to ws.n_active - 1 do
    let i = ws.active.(j) in
    ignore (refresh_key ws opts i : bool);
    changed.(!moved) <- i;
    incr moved
  done;
  sort ws changed 0 !moved;
  merge ws order ~lo:0 ~mid:!kept changed !moved;
  ws.n_order <- !kept + !moved

let pdq_rates ws opts ~now ~capacity ~admitted =
  let residual = ws.residual in
  Array.blit capacity 0 residual 0 (Array.length capacity);
  pdq_order ws opts ~admitted;
  for j = 0 to ws.n_order - 1 do
    let i = ws.order.(j) in
    if opts.early_termination && infeasible ws i ~now then begin
      ws.dead.(i) <- true;
      ws.rate.(i) <- 0.
    end
    else begin
      let path = ws.paths.(i) in
      let r = ref ws.nic.(i) in
      for h = 0 to Array.length path - 1 do
        r := fmin !r residual.(path.(h))
      done;
      let r = fmax 0. !r in
      ws.rate.(i) <- r;
      if r > 0. then
        for h = 0 to Array.length path - 1 do
          let l = path.(h) in
          residual.(l) <- residual.(l) -. r
        done
    end
  done

(* RCP's queue of per-link fair shares. An entry is a (share, seq)
   pair for one link; [seq] numbers the pushes since the last [clear],
   so the pair is a total order and fixes the pop sequence.

   Each link's entries form a list sorted by (share, seq), threaded
   through a pool that [clear] empties: an entry's index in the pool is
   its [seq]. A 4-ary indexed min-heap holds each link whose list is not
   empty once, keyed by the list's head, so the least entry of all is
   the head of the root link's list. A new entry has the largest [seq],
   so it goes after every entry whose share is no greater than its own:
   behind the tail in O(1) when its share is at least the tail's, which
   is the common case, as water-filling shares mostly grow. The heap
   moves only when a link's head changes or a link leaves, and [kill]
   drops a link's whole list at once.

   Keys sit unboxed in a float array. No float is passed to or returned
   from a function that is not inlined: without flambda, the float
   argument of [push] and the result of [min_share] would each be
   boxed. *)
module Share_queue = struct
  type t = {
    (* Entry pool: [share.(e)], and [next.(e)], the entry after [e] in
       its link's list or -1. [used] entries are taken. *)
    mutable share : float array;
    mutable next : int array;
    mutable used : int;
    (* Per link: the first and last entry of its list; [first] is -1
       when the list is empty. *)
    first : int array;
    last : int array;
    (* The heap, [size] slots: slot [i] holds a link whose head entry
       has share [key.(i)]; [tag.(i)] packs that entry above the link
       ([tag_bits]; both stay far below 2^31), so comparing tags
       compares seqs. [pos] maps a link back to its slot, or -1. *)
    key : float array;
    tag : int array;
    pos : int array;
    mutable size : int;
  }

  let tag_bits = 31
  let link_mask = (1 lsl tag_bits) - 1

  let create ~links ~capacity =
    let capacity = max 1 capacity in
    {
      share = Array.make capacity 0.;
      next = Array.make capacity 0;
      used = 0;
      first = Array.make links (-1);
      last = Array.make links (-1);
      key = Array.make links 0.;
      tag = Array.make links 0;
      pos = Array.make links (-1);
      size = 0;
    }

  let is_empty q = q.size = 0

  let clear q =
    for i = 0 to q.size - 1 do
      let l = q.tag.(i) land link_mask in
      q.first.(l) <- -1;
      q.pos.(l) <- -1
    done;
    q.size <- 0;
    q.used <- 0

  let grow q =
    let n = Array.length q.share in
    let share = Array.make (2 * n) 0. and next = Array.make (2 * n) 0 in
    Array.blit q.share 0 share 0 n;
    Array.blit q.next 0 next 0 n;
    q.share <- share;
    q.next <- next

  (* Slot [i]'s parent is [(i - 1) / 4] and its children are [4i + 1]
     to [4i + 4]. The sifts move a hole and write the moving slot once,
     at its final place. Every index they touch is below [size]. *)
  let sift_up q i =
    let key = q.key and tag = q.tag and pos = q.pos in
    let k = Array.unsafe_get key i and g = Array.unsafe_get tag i in
    let i = ref i and continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 4 in
      let kp = Array.unsafe_get key p and gp = Array.unsafe_get tag p in
      if k < kp || (k = kp && g < gp) then begin
        Array.unsafe_set key !i kp;
        Array.unsafe_set tag !i gp;
        Array.unsafe_set pos (gp land link_mask) !i;
        i := p
      end
      else continue := false
    done;
    Array.unsafe_set key !i k;
    Array.unsafe_set tag !i g;
    Array.unsafe_set pos (g land link_mask) !i

  let sift_down q i =
    let key = q.key and tag = q.tag and pos = q.pos and n = q.size in
    let k = Array.unsafe_get key i and g = Array.unsafe_get tag i in
    let i = ref i and continue = ref true in
    while !continue do
      let c0 = (4 * !i) + 1 in
      if c0 >= n then continue := false
      else begin
        let c = ref c0 in
        let kc = ref (Array.unsafe_get key c0) and gc = ref (Array.unsafe_get tag c0) in
        for j = c0 + 1 to (if c0 + 3 < n then c0 + 3 else n - 1) do
          let kj = Array.unsafe_get key j in
          if kj < !kc || (kj = !kc && Array.unsafe_get tag j < !gc) then begin
            c := j;
            kc := kj;
            gc := Array.unsafe_get tag j
          end
        done;
        if !kc < k || (!kc = k && !gc < g) then begin
          Array.unsafe_set key !i !kc;
          Array.unsafe_set tag !i !gc;
          Array.unsafe_set pos (!gc land link_mask) !i;
          i := !c
        end
        else continue := false
      end
    done;
    Array.unsafe_set key !i k;
    Array.unsafe_set tag !i g;
    Array.unsafe_set pos (g land link_mask) !i

  (* Take slot [i]'s link out of the heap: the last slot fills the hole
     and moves up or down to its place. *)
  let remove q i =
    let key = q.key and tag = q.tag in
    q.pos.(tag.(i) land link_mask) <- -1;
    let last = q.size - 1 in
    q.size <- last;
    if i < last then begin
      let k = key.(last) and g = tag.(last) in
      key.(i) <- k;
      tag.(i) <- g;
      let p = (i - 1) / 4 in
      if i > 0 && (k < key.(p) || (k = key.(p) && g < tag.(p))) then
        sift_up q i
      else sift_down q i
    end

  (* Put entry [e], the newest, into link [l]'s list. *)
  let insert q l e =
    let share = q.share and next = q.next in
    let s = share.(e) in
    let f = q.first.(l) in
    if f < 0 then begin
      next.(e) <- -1;
      q.first.(l) <- e;
      q.last.(l) <- e;
      let i = q.size in
      q.size <- i + 1;
      q.key.(i) <- s;
      q.tag.(i) <- (e lsl tag_bits) lor l;
      sift_up q i
    end
    else begin
      let z = q.last.(l) in
      if s >= share.(z) then begin
        next.(e) <- -1;
        next.(z) <- e;
        q.last.(l) <- e
      end
      else if s < share.(f) then begin
        (* A new head: the link's key falls. *)
        next.(e) <- f;
        q.first.(l) <- e;
        let i = q.pos.(l) in
        q.key.(i) <- s;
        q.tag.(i) <- (e lsl tag_bits) lor l;
        sift_up q i
      end
      else begin
        (* After the last entry whose share is at most [s]; the tail's
           share is above [s], so the walk stops before it. *)
        let p = ref f in
        while share.(next.(!p)) <= s do
          p := next.(!p)
        done;
        next.(e) <- next.(!p);
        next.(!p) <- e
      end
    end

  let[@inline] push q l s =
    let e = q.used in
    if e = Array.length q.share then grow q;
    q.share.(e) <- s;
    q.used <- e + 1;
    insert q l e

  let empty fn = invalid_arg ("Share_queue." ^ fn ^ ": empty queue")

  let[@inline] min_share q = if q.size = 0 then empty "min_share" else q.key.(0)
  let min_link q = if q.size = 0 then empty "min_link" else q.tag.(0) land link_mask

  let pop q =
    if q.size = 0 then empty "pop";
    let g = q.tag.(0) in
    let l = g land link_mask in
    let n = q.next.(g lsr tag_bits) in
    if n < 0 then begin
      q.first.(l) <- -1;
      remove q 0
    end
    else begin
      q.first.(l) <- n;
      q.key.(0) <- q.share.(n);
      q.tag.(0) <- (n lsl tag_bits) lor l;
      sift_down q 0
    end

  let kill q l =
    let i = q.pos.(l) in
    if i >= 0 then begin
      q.first.(l) <- -1;
      remove q i
    end
end

(* RCP's per-link state, made only on RCP runs. *)
type rcp = {
  row : int array;
      (* members in compressed sparse rows: link [l]'s flows are
         [members.(row.(l)) .. members.(row.(l+1) - 1)] *)
  members : int array; (* flow [idx]s *)
  queue : Share_queue.t;
}

(* Global max-min fairness via water-filling over a queue of per-link
   fair shares. Links freeze in (share, push seq) order and each link's
   members are visited oldest admitted first. Together they fix the
   float order of the residual updates, so both orders are part of the
   output. A popped share more than 1e-6 below the link's current one
   is stale: the link is pushed again with the current share. A link
   whose flows are all assigned leaves the queue with every entry it
   had, which leaves the pop order of the rest unchanged. *)
let rcp_rates ws st ~capacity =
  let { active; n_active; paths; rate; residual; count; _ } = ws in
  let { row; members; queue = q } = st in
  let nlinks = Array.length capacity in
  Array.blit capacity 0 residual 0 nlinks;
  Array.fill count 0 nlinks 0;
  for j = 0 to n_active - 1 do
    let i = active.(j) in
    rate.(i) <- -1.;
    let path = paths.(i) in
    for h = 0 to Array.length path - 1 do
      let l = path.(h) in
      count.(l) <- count.(l) + 1
    done
  done;
  (* Each row is filled back to front from the newest flow, so it lists
     its flows oldest first: [row.(l)] starts at the end of link [l]'s
     row and steps down to its start. *)
  let ends = ref 0 in
  for l = 0 to nlinks - 1 do
    ends := !ends + count.(l);
    row.(l) <- !ends
  done;
  row.(nlinks) <- !ends;
  for j = n_active - 1 downto 0 do
    let i = active.(j) in
    let path = paths.(i) in
    for h = 0 to Array.length path - 1 do
      let l = path.(h) in
      let slot = row.(l) - 1 in
      row.(l) <- slot;
      members.(slot) <- i
    done
  done;
  Share_queue.clear q;
  for l = 0 to nlinks - 1 do
    if count.(l) > 0 then
      Share_queue.push q l (residual.(l) /. float_of_int count.(l))
  done;
  while not (Share_queue.is_empty q) do
    let key = Share_queue.min_share q and l = Share_queue.min_link q in
    let fair = residual.(l) /. float_of_int count.(l) in
    if fair > key +. 1e-6 then begin
      Share_queue.pop q;
      Share_queue.push q l fair
    end
    else begin
      (* Freeze this link: all its unassigned flows are bottlenecked
         here, so its count falls to 0 and it leaves the queue now
         rather than after a pop and a [kill]. *)
      Share_queue.kill q l;
      for j = row.(l) to row.(l + 1) - 1 do
        let i = members.(j) in
        if rate.(i) < 0. then begin
          let r = fmax 0. fair in
          rate.(i) <- r;
          let path = paths.(i) in
          for h = 0 to Array.length path - 1 do
            let m = path.(h) in
            let c = count.(m) - 1 in
            count.(m) <- c;
            if c = 0 then Share_queue.kill q m;
            if m <> l then begin
              residual.(m) <- residual.(m) -. r;
              if c > 0 then
                Share_queue.push q m (residual.(m) /. float_of_int c)
            end
          done
        end
      done
    end
  done;
  for j = 0 to n_active - 1 do
    let i = active.(j) in
    if rate.(i) < 0. then rate.(i) <- 0.
  done

(* D3: greedy first-come-first-reserve per link in flow arrival order,
   plus the previous step's non-negative fair share. [fs] persists
   across steps (per link). Flows are admitted in arrival order (start,
   then the unique id), so [active] is in arrival order. *)
let d3_rates ws ~now ~capacity ~fs =
  let nlinks = Array.length capacity in
  let avail = ws.residual and demand = ws.demand and counts = ws.count in
  Array.blit capacity 0 avail 0 nlinks;
  Array.fill demand 0 nlinks 0.;
  Array.fill counts 0 nlinks 0;
  for j = 0 to ws.n_active - 1 do
    let i = ws.active.(j) in
    if infeasible ws i ~now then begin
      (* Quenching. *)
      ws.dead.(i) <- true;
      ws.rate.(i) <- 0.
    end
    else begin
      let request =
        if not ws.has_deadline.(i) then 0.
        else
          let d = ws.deadline_abs.(i) in
          if d > now then ws.remaining.(i) /. (d -. now) else ws.nic.(i)
      in
      let path = ws.paths.(i) in
      let alloc = ref ws.nic.(i) in
      for h = 0 to Array.length path - 1 do
        let l = path.(h) in
        alloc := fmin !alloc (fmin (request +. fs.(l)) avail.(l))
      done;
      let alloc = fmax 0. !alloc in
      ws.rate.(i) <- alloc;
      for h = 0 to Array.length path - 1 do
        let l = path.(h) in
        avail.(l) <- avail.(l) -. alloc;
        demand.(l) <- demand.(l) +. request;
        counts.(l) <- counts.(l) + 1
      done
    end
  done;
  (* Fair share for the next interval (non-negative, as in §5.1). *)
  for l = 0 to nlinks - 1 do
    if counts.(l) > 0 then
      fs.(l) <- fmax 0. ((capacity.(l) -. demand.(l)) /. float_of_int counts.(l))
    else fs.(l) <- capacity.(l)
  done

let workspace ~capacity ~goodput_factor ~seed proto specs =
  let n = Array.length specs and nlinks = Array.length capacity in
  let ids = Hashtbl.create n in
  Array.iter
    (fun spec ->
      if Array.length spec.path = 0 then
        invalid_arg
          (Printf.sprintf "Flowsim.run: flow %d has an empty path" spec.fs_id);
      if Hashtbl.mem ids spec.fs_id then
        invalid_arg (Printf.sprintf "Flowsim.run: duplicate flow id %d" spec.fs_id);
      Hashtbl.add ids spec.fs_id ())
    specs;
  let has_deadline = Array.map (fun s -> Option.is_some s.deadline) specs in
  let deadline_abs =
    Array.map
      (fun s -> match s.deadline with Some d -> s.start +. d | None -> 0.)
      specs
  in
  let rng = Rng.create seed in
  let criticality = match proto with Pdq o -> o.criticality | _ -> Perfect in
  let key_ttx =
    Array.init n (fun _ ->
        match criticality with
        | Random_criticality -> Rng.float rng
        | Perfect | Size_estimation _ -> Float.nan)
  in
  let perfect = criticality = Perfect in
  {
    specs;
    id = Array.map (fun s -> s.fs_id) specs;
    paths = Array.map (fun s -> s.path) specs;
    nic =
      Array.map
        (fun s ->
          Array.fold_left (fun acc l -> fmin acc capacity.(l)) infinity s.path
          *. goodput_factor)
        specs;
    remaining = Array.map (fun s -> bits_of_bytes s.size) specs;
    rate = Array.make n 0.;
    waited = Array.make n 0.;
    done_at = Array.make n Float.nan;
    deadline_abs;
    has_deadline;
    dead = Array.make n false;
    est_level = Array.make n 0;
    key_class =
      Array.map (fun d -> if perfect && not d then 1 else 0) has_deadline;
    key_deadline =
      Array.mapi (fun i d -> if perfect && d then deadline_abs.(i) else 0.) has_deadline;
    key_ttx;
    active = Array.make n 0;
    n_active = 0;
    order = Array.make n 0;
    n_order = 0;
    changed = Array.make n 0;
    tmp = Array.make n 0;
    residual = Array.make nlinks 0.;
    count = Array.make nlinks 0;
    demand = Array.make nlinks 0.;
  }

(* The per-run state of one protocol's solver. *)
type solver = Pdq_solver of pdq_opts | Rcp_solver of rcp | D3_solver of float array

let solver ~nlinks proto specs =
  match proto with
  | Pdq opts -> Pdq_solver opts
  | Rcp ->
      let hops = Array.fold_left (fun h s -> h + Array.length s.path) 0 specs in
      Rcp_solver
        {
          row = Array.make (nlinks + 1) 0;
          members = Array.make hops 0;
          queue = Share_queue.create ~links:nlinks ~capacity:(nlinks + hops);
        }
  | D3 -> D3_solver (Array.make nlinks 0.)

let run ?(dt = 1e-3) ?(init_latency = 5e-4) ?(header_overhead = 56. /. 1500.)
    ?(seed = 1) ?(horizon = 60.) net proto specs =
  let goodput_factor = 1. -. header_overhead in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let ws = workspace ~capacity:net.capacity ~goodput_factor ~seed proto specs in
  let { active; remaining; rate; waited; done_at; dead; _ } = ws in
  (* Admission order: by start, then the unique id. *)
  let pending = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      match Float.compare specs.(a).start specs.(b).start with
      | 0 -> Int.compare specs.(a).fs_id specs.(b).fs_id
      | c -> c)
    pending;
  let next = ref 0 in
  let quantum =
    match proto with
    | Pdq { criticality = Size_estimation q; _ } -> max 1 q
    | _ -> 0
  in
  let solver = solver ~nlinks:(Array.length net.capacity) proto specs in
  let t = ref (if n = 0 then 0. else specs.(pending.(0)).start) in
  let open_flows = ref n in
  while !open_flows > 0 && !t < horizon do
    (* Admit flows whose init latency elapsed. *)
    let admitted = ws.n_active in
    while
      !next < n && specs.(pending.(!next)).start +. init_latency <= !t +. 1e-12
    do
      active.(ws.n_active) <- pending.(!next);
      ws.n_active <- ws.n_active + 1;
      incr next
    done;
    (* [active] holds only live flows here: the previous step retired
       every dead and finished one. *)
    (match solver with
    | Pdq_solver opts -> pdq_rates ws opts ~now:!t ~capacity:net.capacity ~admitted
    | Rcp_solver st -> rcp_rates ws st ~capacity:net.capacity
    | D3_solver fs -> d3_rates ws ~now:!t ~capacity:net.capacity ~fs);
    (* Advance remaining work; interpolate completion times within the
       step. The goodput factor models header overhead. Each flow's
       update is independent of the others. *)
    let retired = ref false in
    for j = 0 to ws.n_active - 1 do
      let i = active.(j) in
      if dead.(i) then begin
        decr open_flows;
        retired := true
      end
      else begin
        let goodput = rate.(i) *. goodput_factor in
        if goodput <= 0. then waited.(i) <- waited.(i) +. dt
        else begin
          let work = goodput *. dt in
          if work >= remaining.(i) then begin
            done_at.(i) <- !t +. (remaining.(i) /. goodput);
            remaining.(i) <- 0.;
            decr open_flows;
            retired := true
          end
          else begin
            remaining.(i) <- remaining.(i) -. work;
            if quantum > 0 then
              ws.est_level.(i) <-
                (specs.(i).size - int_of_float (remaining.(i) /. 8.)) / quantum
          end
        end
      end
    done;
    (* Retire once per step, compacting [active] in place in order. *)
    if !retired then begin
      let k = ref 0 in
      for j = 0 to ws.n_active - 1 do
        let i = active.(j) in
        if (not dead.(i)) && Float.is_nan done_at.(i) then begin
          active.(!k) <- i;
          incr k
        end
      done;
      ws.n_active <- !k
    end;
    t := !t +. dt
  done;
  let results =
    Array.mapi
      (fun i spec ->
        let fin = done_at.(i) in
        let finished = not (Float.is_nan fin) in
        {
          spec;
          fct = (if finished then Some (fin -. spec.start) else None);
          met_deadline =
            finished && ((not ws.has_deadline.(i)) || fin <= ws.deadline_abs.(i));
          terminated = dead.(i);
        })
      specs
  in
  let with_deadline = ref 0 and met = ref 0 in
  let completed = ref 0 and sum = ref 0. and max_fct = ref 0. in
  Array.iter
    (fun (r : flow_result) ->
      if r.spec.deadline <> None then begin
        incr with_deadline;
        if r.met_deadline then incr met
      end;
      match r.fct with
      | Some f ->
          incr completed;
          sum := !sum +. f;
          max_fct := fmax !max_fct f
      | None -> ())
    results;
  {
    flows = results;
    application_throughput =
      (if !with_deadline = 0 then 1.
       else float_of_int !met /. float_of_int !with_deadline);
    mean_fct = (if !completed = 0 then 0. else !sum /. float_of_int !completed);
    max_fct = !max_fct;
    completed = !completed;
  }
