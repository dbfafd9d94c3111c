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
  row : int array;
      (* RCP members in compressed sparse rows: link [l]'s flows are
         [members.(row.(l)) .. members.(row.(l+1) - 1)] *)
  members : int array; (* flow [idx]s *)
  queued : int array; (* per link: RCP heap entries *)
  heap : Pdq_engine.Heap.t;
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

(* Global max-min fairness via water-filling with a lazy heap of
   per-link fair shares. Links freeze in (share, push seq) order and
   each link's members are visited oldest admitted first. Together they
   fix the float order of the residual updates, so both orders are part
   of the output. *)
let rcp_rates ws ~capacity =
  let module Heap = Pdq_engine.Heap in
  let { active; n_active; paths; rate; residual; count; row; members; queued; heap; _ } =
    ws
  in
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
  Heap.clear heap;
  Array.fill queued 0 nlinks 0;
  for l = 0 to nlinks - 1 do
    if count.(l) > 0 then begin
      Heap.append heap (residual.(l) /. float_of_int count.(l)) l;
      queued.(l) <- 1
    end
  done;
  Heap.heapify heap;
  let push l =
    if count.(l) > 0 then begin
      Heap.push heap (residual.(l) /. float_of_int count.(l)) l;
      queued.(l) <- queued.(l) + 1
    end
  in
  (* An entry is dead once its link has no unassigned flow left; [count]
     only falls, so it stays dead and would only be skipped. Once dead
     entries are more than half the heap they are dropped, which leaves
     the pop order of the others unchanged. *)
  let dead = ref 0 in
  while not (Heap.is_empty heap) do
    let key = Heap.min_prio heap in
    let l = Heap.pop heap in
    queued.(l) <- queued.(l) - 1;
    if count.(l) = 0 then decr dead
    else begin
      let fair = residual.(l) /. float_of_int count.(l) in
      if fair > key +. 1e-6 then
        (* Stale entry: requeue with the current fair share. *)
        push l
      else
        (* Freeze this link: all its unassigned flows are bottlenecked
           here. *)
        for j = row.(l) to row.(l + 1) - 1 do
          let i = members.(j) in
          if rate.(i) < 0. then begin
            let r = fmax 0. fair in
            rate.(i) <- r;
            let path = paths.(i) in
            for h = 0 to Array.length path - 1 do
              let m = path.(h) in
              count.(m) <- count.(m) - 1;
              if count.(m) = 0 then dead := !dead + queued.(m);
              if m <> l then begin
                residual.(m) <- residual.(m) -. r;
                push m
              end
            done
          end
        done
    end;
    if 2 * !dead > Heap.length heap then begin
      Heap.filter heap (fun l -> count.(l) > 0);
      dead := 0
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
    row = Array.make (nlinks + 1) 0;
    members =
      Array.make (Array.fold_left (fun h s -> h + Array.length s.path) 0 specs) 0;
    queued = Array.make nlinks 0;
    heap = Pdq_engine.Heap.create ();
  }

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
  let fs = Array.make (Array.length net.capacity) 0. in
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
    (match proto with
    | Pdq opts -> pdq_rates ws opts ~now:!t ~capacity:net.capacity ~admitted
    | Rcp -> rcp_rates ws ~capacity:net.capacity
    | D3 -> d3_rates ws ~now:!t ~capacity:net.capacity ~fs);
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
