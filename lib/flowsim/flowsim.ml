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
  pstart : int array;
  plink : int array;
      (* every path once, in compressed sparse rows: flow [i]'s links
         are [plink.(pstart.(i)) .. plink.(pstart.(i + 1) - 1)] *)
  nic : float array; (* min capacity along the path: max possible rate *)
  remaining : float array; (* goodput bits *)
  rate : float array;
  waited : float array; (* cumulative paused time (aging) *)
  done_at : float array; (* completion time; NaN while unfinished *)
  deadline_abs : float array; (* read only where [has_deadline] *)
  has_deadline : bool array;
  dead : bool array; (* early-terminated / quenched *)
  active : int array; (* live [idx]s in admission order, oldest first *)
  mutable n_active : int;
  residual : float array; (* per link: PDQ's and RCP's residual *)
}

(* Infeasibility check for Early Termination / quenching. *)
let[@inline] infeasible ws i ~now =
  ws.has_deadline.(i)
  &&
  let d = ws.deadline_abs.(i) in
  now >= d || now +. (ws.remaining.(i) /. ws.nic.(i)) > d

(* PDQ's per-run state. Its sort key is compared in this order and then
   by [id]. Perfect: class 0 with a deadline and 1 without, the deadline
   (0 without one) and the aged ttx. Random_criticality: (0, 0, the
   random priority). Size_estimation: (level, 0, 0). *)
type pdq = {
  opts : pdq_opts;
  id : int array; (* [fs_id] *)
  key_class : int array;
  key_deadline : float array;
  key_ttx : float array;
  order : int array;
      (* the previous step's flows most critical first, kept across
         steps; [order.(0 .. n_order - 1)] *)
  mutable n_order : int;
  changed : int array; (* flows to re-sort this step *)
  tmp : int array; (* merge sort scratch *)
}

let pdq_state ws opts ~seed =
  let n = Array.length ws.specs and rng = Rng.create seed in
  let perfect = opts.criticality = Perfect and d i = ws.has_deadline.(i) in
  {
    opts;
    id = Array.map (fun s -> s.fs_id) ws.specs;
    key_class = Array.init n (fun i -> if perfect && not (d i) then 1 else 0);
    key_deadline = Array.init n (fun i -> if perfect && d i then ws.deadline_abs.(i) else 0.);
    key_ttx =
      Array.init n (fun _ ->
          if opts.criticality = Random_criticality then Rng.float rng else Float.nan);
    order = Array.make n 0;
    n_order = 0;
    changed = Array.make n 0;
    tmp = Array.make n 0;
  }

(* PDQ's criticality order. [Float.compare] orders floats, NaN
   included, as the polymorphic [compare] does; the unique id makes it
   total. *)
let by_key p i j =
  match Int.compare p.key_class.(i) p.key_class.(j) with
  | 0 -> (
      match Float.compare p.key_deadline.(i) p.key_deadline.(j) with
      | 0 -> (
          match Float.compare p.key_ttx.(i) p.key_ttx.(j) with
          | 0 -> Int.compare p.id.(i) p.id.(j)
          | c -> c)
      | c -> c)
  | c -> c

(* Recompute the moving part of flow [i]'s key; true if it changed. *)
let refresh_key ws p i =
  match p.opts.criticality with
  | Random_criticality -> false
  | Size_estimation q ->
      (* Whole quanta sent, as of the last step that moved [remaining]. *)
      let l = (ws.specs.(i).size - int_of_float (ws.remaining.(i) /. 8.)) / max 1 q in
      l <> p.key_class.(i)
      && begin
           p.key_class.(i) <- l;
           true
         end
  | Perfect ->
      let ttx = ws.remaining.(i) /. ws.nic.(i) in
      let ttx =
        match p.opts.aging_rate with
        | Some alpha ->
            Pdq_core.Criticality.aged_tx_time ~aging_rate:alpha
              ~wait:ws.waited.(i) ~expected_tx_time:ttx
        | None -> ttx
      in
      Float.compare ttx p.key_ttx.(i) <> 0
      && begin
           p.key_ttx.(i) <- ttx;
           true
         end

(* Merge the sorted runs [dst.(lo .. mid - 1)] and [src.(0 .. n - 1)]
   into [dst.(lo .. mid + n - 1)], from the back: once [src] is placed,
   the rest of the first run already is. *)
let merge p dst ~lo ~mid src n =
  let i = ref (mid - 1) and j = ref (n - 1) in
  while !j >= 0 do
    let k = !i + !j + 1 in
    if !i >= lo && by_key p dst.(!i) src.(!j) > 0 then begin
      dst.(k) <- dst.(!i);
      decr i
    end
    else begin
      dst.(k) <- src.(!j);
      decr j
    end
  done

(* Merge sort of [a.(lo .. hi - 1)] by [by_key], with [p.tmp] as
   scratch. *)
let rec sort p a lo hi =
  if hi - lo <= 8 then
    for k = lo + 1 to hi - 1 do
      let x = a.(k) in
      let j = ref (k - 1) in
      while !j >= lo && by_key p a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort p a lo mid;
    sort p a mid hi;
    if by_key p a.(mid - 1) a.(mid) > 0 then begin
      Array.blit a mid p.tmp 0 (hi - mid);
      merge p a ~lo ~mid p.tmp (hi - mid)
    end
  end

(* Bring [order] up to date with this step's keys and live flows. The
   flows whose key did not move stay sorted; only the moved ones and
   the flows admitted since [active.(admitted)] are sorted, then the two
   runs are merged. [by_key] is total, so this is the order a fresh sort
   gives. With aging every paused key moves, so it is one full sort. *)
let pdq_order ws p ~admitted =
  let { order; changed; _ } = p in
  let kept = ref 0 and moved = ref 0 in
  for j = 0 to p.n_order - 1 do
    let i = order.(j) in
    if (not ws.dead.(i)) && Float.is_nan ws.done_at.(i) then
      if refresh_key ws p i then begin
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
    ignore (refresh_key ws p i : bool);
    changed.(!moved) <- i;
    incr moved
  done;
  sort p changed 0 !moved;
  merge p order ~lo:0 ~mid:!kept changed !moved;
  p.n_order <- !kept + !moved

let pdq_rates ws p ~now ~capacity ~admitted =
  let { residual; pstart; plink; _ } = ws in
  Array.blit capacity 0 residual 0 (Array.length capacity);
  pdq_order ws p ~admitted;
  for j = 0 to p.n_order - 1 do
    let i = p.order.(j) in
    if p.opts.early_termination && infeasible ws i ~now then begin
      ws.dead.(i) <- true;
      ws.rate.(i) <- 0.
    end
    else begin
      let a = pstart.(i) and b = pstart.(i + 1) - 1 in
      let r = ref ws.nic.(i) in
      for h = a to b do
        r := fmin !r residual.(plink.(h))
      done;
      let r = fmax 0. !r in
      ws.rate.(i) <- r;
      if r > 0. then
        for h = a to b do
          let l = plink.(h) in
          residual.(l) <- residual.(l) -. r
        done
    end
  done

(* RCP's queue of per-link fair shares. An entry is a (share, seq)
   pair for one link; [seq] numbers the pushes since the last [clear],
   so the pair is a total order and fixes the pop sequence.

   Water-filling makes many entries but few distinct shares, so each
   distinct share has a bucket: a FIFO of its entries, threaded through
   a pool in which an entry's index is its seq. Pushes come in seq
   order, so each FIFO is in seq order, and a binary min-heap of the
   buckets with entries, keyed by share without ties, has the least
   entry of all at the head of its root. A push finds its bucket in an
   open-addressing table hashed on the share's bits, with −0 stored as
   +0 (they compare equal, so they are one share). A bucket stays in the
   table until [clear]; a push to an emptied one puts it back in the
   heap.

   [kill] is lazy: it marks the link with the count of pushes ever made,
   and an entry is live iff its push came at or after its link's mark.
   Dead entries are dropped as they reach the root's head, which is kept
   live, so the heap is empty iff no entry is live.

   No float is passed to or returned from a function that is not
   inlined: without flambda, the float argument of [push] and the result
   of [min_share] would each be boxed. *)
module Share_queue = struct
  type t = {
    (* Entry [e] is link [link.(e)]'s, followed in its FIFO by [next.(e)]
       or -1; [used] entries are taken, after [base] pushes before the
       last [clear]. *)
    mutable link : int array;
    mutable next : int array;
    mutable used : int;
    mutable base : int;
    mark : int array; (* per link: entry [e] is live iff [base + e >= mark] *)
    (* Bucket [b < n_buckets] holds share [value.(b)] and the FIFO from
       [head.(b)] (-1 when empty, and then out of the heap) to
       [tail.(b)]. [value.(n_buckets)] passes [push]'s share on. *)
    mutable value : float array;
    mutable head : int array;
    mutable tail : int array;
    mutable n_buckets : int;
    (* Linear probing, a bucket or -1 per slot, [1 lsl (63 - shift)]
       slots: twice the bucket room, which starts at no more than 1024
       (a step at 4096 servers pushes a few hundred distinct shares). *)
    mutable table : int array;
    mutable shift : int;
    mutable heap : int array; (* buckets, [size] of them *)
    mutable size : int;
  }

  let table_for q room =
    let bits = ref 1 in
    while 1 lsl !bits < 2 * room do
      incr bits
    done;
    q.table <- Array.make (1 lsl !bits) (-1);
    q.shift <- 63 - !bits

  let create ~links ~capacity =
    let capacity = max 1 capacity in
    let room = min capacity 1024 in
    let q =
      {
        link = Array.make capacity 0;
        next = Array.make capacity 0;
        used = 0;
        base = 0;
        mark = Array.make links 0;
        value = Array.make (room + 1) 0.;
        head = Array.make room (-1);
        tail = Array.make room 0;
        n_buckets = 0;
        table = [||];
        shift = 0;
        heap = Array.make room 0;
        size = 0;
      }
    in
    table_for q room;
    q

  let is_empty q = q.size = 0

  (* The slot of share [s]: its bucket's, or the free one it would take.
     Fibonacci hashing of the bits: the product's top bits. *)
  let[@inline] probe q (s : float) =
    let h = ref ((Int64.to_int (Int64.bits_of_float s) * 0x2545F4914F6CDD1D) lsr q.shift) in
    while q.table.(!h) >= 0 && q.value.(q.table.(!h)) <> s do
      h := (!h + 1) land (Array.length q.table - 1)
    done;
    !h

  (* Buckets leave the table newest first, so each one's probe path is
     as it was when the bucket went in. *)
  let clear q =
    for b = q.n_buckets - 1 downto 0 do
      q.table.(probe q q.value.(b)) <- -1
    done;
    q.base <- q.base + q.used;
    q.used <- 0;
    q.n_buckets <- 0;
    q.size <- 0

  let resize a n x =
    let b = Array.make n x in
    Array.blit a 0 b 0 (Array.length a);
    b

  let grow_buckets q =
    let room = 2 * Array.length q.head in
    q.value <- resize q.value (room + 1) 0.;
    q.head <- resize q.head room (-1);
    q.tail <- resize q.tail room 0;
    q.heap <- resize q.heap room 0;
    table_for q room;
    for b = 0 to q.n_buckets - 1 do
      q.table.(probe q q.value.(b)) <- b
    done

  (* The sifts move a hole and write the moving bucket once, at its
     final place. *)
  let heap_add q b =
    let { heap; value; _ } = q in
    let i = ref q.size in
    q.size <- !i + 1;
    while !i > 0 && value.(b) < value.(heap.((!i - 1) / 2)) do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- b

  let heap_remove_root q =
    let { heap; value; _ } = q in
    let n = q.size - 1 in
    q.size <- n;
    let b = heap.(n) and i = ref 0 and continue = ref true in
    while !continue do
      let c = (2 * !i) + 1 in
      let c = if c + 1 < n && value.(heap.(c + 1)) < value.(heap.(c)) then c + 1 else c in
      if c < n && value.(heap.(c)) < value.(b) then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else continue := false
    done;
    heap.(!i) <- b

  (* Keep the root's head live: drop dead heads, and the buckets they
     empty. *)
  let settle q =
    let continue = ref (q.size > 0) in
    while !continue do
      let b = q.heap.(0) in
      let e = q.head.(b) in
      if e < 0 then begin
        heap_remove_root q;
        continue := q.size > 0
      end
      else if q.base + e < q.mark.(q.link.(e)) then q.head.(b) <- q.next.(e)
      else continue := false
    done

  (* Add the newest entry, link [l]'s, with share [value.(n_buckets)]. *)
  let insert q l =
    let e = q.used in
    if e = Array.length q.link then begin
      q.link <- resize q.link (2 * e) 0;
      q.next <- resize q.next (2 * e) 0
    end;
    q.used <- e + 1;
    q.link.(e) <- l;
    q.next.(e) <- -1;
    let s = q.value.(q.n_buckets) in
    let s = if s = 0. then 0. else s in
    let h = probe q s in
    let b =
      if q.table.(h) >= 0 then q.table.(h)
      else begin
        let b = q.n_buckets in
        q.n_buckets <- b + 1;
        q.value.(b) <- s;
        q.table.(h) <- b;
        q.head.(b) <- -1;
        b
      end
    in
    if q.head.(b) < 0 then begin
      q.head.(b) <- e;
      heap_add q b
    end
    else q.next.(q.tail.(b)) <- e;
    q.tail.(b) <- e

  let[@inline] push q l s =
    if q.n_buckets = Array.length q.head then grow_buckets q;
    q.value.(q.n_buckets) <- s;
    insert q l

  let empty fn = invalid_arg ("Share_queue." ^ fn ^ ": empty queue")

  let[@inline] min_share q =
    if q.size = 0 then empty "min_share" else q.value.(q.heap.(0))

  let min_link q =
    if q.size = 0 then empty "min_link" else q.link.(q.head.(q.heap.(0)))

  let pop q =
    if q.size = 0 then empty "pop";
    let b = q.heap.(0) in
    q.head.(b) <- q.next.(q.head.(b));
    settle q

  let kill q l =
    q.mark.(l) <- q.base + q.used;
    settle q
end

(* RCP's per-link state, made only on RCP runs. *)
type rcp = {
  count : int array; (* unassigned flows; 0 between steps *)
  live : int array; (* links with flows, ascending: [live.(0 .. n_live - 1)] *)
  mutable n_live : int;
  row : int array;
  row_end : int array;
      (* members in compressed sparse rows over the live links: link
         [l]'s flows are [members.(row.(l)) .. members.(row_end.(l) - 1)] *)
  members : int array; (* flow [idx]s *)
  queue : Share_queue.t;
}

(* Global max-min fairness via water-filling over a queue of per-link
   fair shares. Links freeze in (share, push seq) order and each link's
   members are visited oldest admitted first. Together they fix the
   float order of the residual updates, so both orders are part of the
   output. A popped share more than 1e-6 below the link's current one
   is stale. A link whose flows are all assigned leaves the queue with
   every entry it had, which leaves the pop order of the rest unchanged.
   Every pass runs over the live links only: a link's first flow in the
   count pass resets its residual. *)
let rcp_rates ws st ~capacity ~admitted =
  let { active; n_active; pstart; plink; rate; residual; _ } = ws in
  let { count; live; row; row_end; members; queue = q; _ } = st in
  for j = 0 to n_active - 1 do
    let i = active.(j) in
    rate.(i) <- -1.;
    for h = pstart.(i) to pstart.(i + 1) - 1 do
      let l = plink.(h) in
      let c = count.(l) in
      if c = 0 then residual.(l) <- capacity.(l);
      count.(l) <- c + 1
    done
  done;
  (* The live links, ascending, so the first pushes go in link order.
     A step that admits no flow has a subset of the last step's flows,
     so its links are a subset of the last step's live list. *)
  let n_live = ref 0 and scan = admitted < n_active in
  for k = 0 to (if scan then Array.length capacity else st.n_live) - 1 do
    let l = if scan then k else live.(k) in
    if count.(l) > 0 then begin
      live.(!n_live) <- l;
      incr n_live
    end
  done;
  let n_live = !n_live in
  st.n_live <- n_live;
  (* Each row is filled back to front from the newest flow, so it lists
     its flows oldest first: [row.(l)] starts at the end of link [l]'s
     row and steps down to its start. *)
  let ends = ref 0 in
  for k = 0 to n_live - 1 do
    let l = live.(k) in
    ends := !ends + count.(l);
    row.(l) <- !ends;
    row_end.(l) <- !ends
  done;
  for j = n_active - 1 downto 0 do
    let i = active.(j) in
    for h = pstart.(i) to pstart.(i + 1) - 1 do
      let l = plink.(h) in
      let slot = row.(l) - 1 in
      row.(l) <- slot;
      members.(slot) <- i
    done
  done;
  Share_queue.clear q;
  for k = 0 to n_live - 1 do
    let l = live.(k) in
    Share_queue.push q l (residual.(l) /. float_of_int count.(l))
  done;
  while not (Share_queue.is_empty q) do
    let key = Share_queue.min_share q and l = Share_queue.min_link q in
    let fair = residual.(l) /. float_of_int count.(l) in
    if fair > key +. 1e-6 then
      (* Stale: drop it without a re-push. Each change to a link with
         unassigned flows is followed by a push of its new
         [residual / count], so [l]'s newest entry N already holds
         [fair], the same float, with a smaller seq than a re-push R
         would get: R would pop after N, with only entries of share
         [fair] between them. If N freezes [l], R dies with it. If N is
         stale, [l]'s share then exceeds [fair] + 1e-6, and the entries
         between freeze links at no more than that, so the flows they
         take off [l] run below [l]'s mean and raise its share: R would
         be stale too (up to rounding, which neither the RCP model
         property nor the goldens have shown to matter). *)
      Share_queue.pop q
    else begin
      (* Freeze this link: all its unassigned flows are bottlenecked
         here, so its count falls to 0 and it leaves the queue now
         rather than after a pop and a [kill]. *)
      Share_queue.kill q l;
      for j = row.(l) to row_end.(l) - 1 do
        let i = members.(j) in
        if rate.(i) < 0. then begin
          let r = fmax 0. fair in
          rate.(i) <- r;
          for h = pstart.(i) to pstart.(i + 1) - 1 do
            let m = plink.(h) in
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
  for k = 0 to n_live - 1 do
    count.(live.(k)) <- 0
  done;
  for j = 0 to n_active - 1 do
    let i = active.(j) in
    if rate.(i) < 0. then rate.(i) <- 0.
  done

(* D3's per-link state, made only on D3 runs. Between steps, [avail],
   [demand] and [count] hold the capacity, 0 and 0. *)
type d3 = {
  fs : float array; (* the fair share, kept across steps *)
  avail : float array;
  demand : float array;
  count : int array;
}

(* D3: greedy first-come-first-reserve per link in flow arrival order,
   plus the previous step's non-negative fair share. Flows are admitted
   in arrival order (start, then the unique id), so [active] is in
   arrival order. *)
let d3_rates ws { fs; avail; demand; count } ~now ~capacity =
  let { pstart; plink; _ } = ws in
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
      let a = pstart.(i) and b = pstart.(i + 1) - 1 in
      let alloc = ref ws.nic.(i) in
      for h = a to b do
        let l = plink.(h) in
        alloc := fmin !alloc (fmin (request +. fs.(l)) avail.(l))
      done;
      let alloc = fmax 0. !alloc in
      ws.rate.(i) <- alloc;
      for h = a to b do
        let l = plink.(h) in
        avail.(l) <- avail.(l) -. alloc;
        demand.(l) <- demand.(l) +. request;
        count.(l) <- count.(l) + 1
      done
    end
  done;
  (* Fair share for the next interval (non-negative, as in §5.1), and
     the totals back to their rest values. A link no flow crossed still
     holds them. *)
  for l = 0 to Array.length capacity - 1 do
    let c = count.(l) in
    if c > 0 then begin
      fs.(l) <- fmax 0. ((capacity.(l) -. demand.(l)) /. float_of_int c);
      avail.(l) <- capacity.(l);
      demand.(l) <- 0.;
      count.(l) <- 0
    end
    else fs.(l) <- capacity.(l)
  done

(* The per-flow arrays, in one pass over the specs after one that
   totals the hops. *)
let workspace ~capacity ~goodput_factor specs =
  let n = Array.length specs and nlinks = Array.length capacity in
  let hops = Array.fold_left (fun h s -> h + Array.length s.path) 0 specs in
  let ids = Pdq_engine.Int_table.create n in
  let pstart = Array.make (n + 1) 0 and plink = Array.make hops 0 in
  let nic = Array.make n 0. and remaining = Array.make n 0. in
  let deadline_abs = Array.make n 0. and has_deadline = Array.make n false in
  Array.iteri
    (fun i s ->
      if Array.length s.path = 0 then
        invalid_arg
          (Printf.sprintf "Flowsim.run: flow %d has an empty path" s.fs_id);
      if Pdq_engine.Int_table.mem ids s.fs_id then
        invalid_arg (Printf.sprintf "Flowsim.run: duplicate flow id %d" s.fs_id);
      Pdq_engine.Int_table.replace ids s.fs_id ();
      let h = pstart.(i) in
      let m = ref infinity in
      Array.iteri
        (fun k l ->
          plink.(h + k) <- l;
          m := fmin !m capacity.(l))
        s.path;
      pstart.(i + 1) <- h + Array.length s.path;
      nic.(i) <- !m *. goodput_factor;
      remaining.(i) <- bits_of_bytes s.size;
      match s.deadline with
      | Some d ->
          has_deadline.(i) <- true;
          deadline_abs.(i) <- s.start +. d
      | None -> ())
    specs;
  {
    specs;
    pstart;
    plink;
    nic;
    remaining;
    rate = Array.make n 0.;
    waited = Array.make n 0.;
    done_at = Array.make n Float.nan;
    deadline_abs;
    has_deadline;
    dead = Array.make n false;
    active = Array.make n 0;
    n_active = 0;
    residual = Array.make nlinks 0.;
  }

(* The per-run state of one protocol's solver. *)
type solver = Pdq_solver of pdq | Rcp_solver of rcp | D3_solver of d3

let solver ws ~capacity ~seed proto =
  let nlinks = Array.length capacity in
  match proto with
  | Pdq opts -> Pdq_solver (pdq_state ws opts ~seed)
  | Rcp ->
      let hops = Array.length ws.plink in
      Rcp_solver
        {
          count = Array.make nlinks 0;
          live = Array.make nlinks 0;
          n_live = 0;
          row = Array.make nlinks 0;
          row_end = Array.make nlinks 0;
          members = Array.make hops 0;
          queue = Share_queue.create ~links:nlinks ~capacity:(nlinks + hops);
        }
  | D3 ->
      D3_solver
        {
          fs = Array.make nlinks 0.;
          avail = Array.copy capacity;
          demand = Array.make nlinks 0.;
          count = Array.make nlinks 0;
        }

(* Admission order: by start, then the unique id. *)
let admission a b =
  match Float.compare a.start b.start with 0 -> Int.compare a.fs_id b.fs_id | c -> c

(* Header bytes per 1500-byte packet, and the simulated-time stop. *)
let header_overhead = 56. /. 1500.
let horizon = 60.

let run ?(dt = 1e-3) ?(init_latency = 5e-4) ?(seed = 1) net proto specs =
  let goodput_factor = 1. -. header_overhead in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let ws = workspace ~capacity:net.capacity ~goodput_factor specs in
  let { active; remaining; rate; waited; done_at; dead; _ } = ws in
  let pending = Array.init n Fun.id in
  (* Specs usually come in admission order already; one pass checks
     that and spares the sort. *)
  let in_order = ref true in
  for i = 1 to n - 1 do
    if admission specs.(i - 1) specs.(i) > 0 then in_order := false
  done;
  if not !in_order then
    Array.stable_sort (fun a b -> admission specs.(a) specs.(b)) pending;
  let next = ref 0 in
  let solver = solver ws ~capacity:net.capacity ~seed proto in
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
    | Pdq_solver p -> pdq_rates ws p ~now:!t ~capacity:net.capacity ~admitted
    | Rcp_solver st -> rcp_rates ws st ~capacity:net.capacity ~admitted
    | D3_solver st -> d3_rates ws st ~now:!t ~capacity:net.capacity);
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
          else remaining.(i) <- remaining.(i) -. work
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
