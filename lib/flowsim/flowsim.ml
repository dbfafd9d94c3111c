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
      Array.init (Pdq_net.Topology.link_count topo) (fun i ->
          Pdq_net.Link.rate (Pdq_net.Topology.link topo i));
  }

(* Internal per-flow state. Sizes tracked in bits of goodput. *)
type fl = {
  spec : flow_spec;
  idx : int; (* position in the run's flow array *)
  deadline_abs : float option;
  nic : float; (* min capacity along the path: max possible rate *)
  mutable remaining : float; (* goodput bits *)
  mutable rate : float;
  mutable done_at : float option;
  mutable dead : bool; (* early-terminated / quenched *)
  rand_crit : float;
  mutable waited : float; (* cumulative paused time (aging) *)
  mutable est_level : int; (* size-estimation criticality level *)
  (* PDQ Perfect-mode sort key, filled once per step: class 0 with a
     deadline, 1 without, then the deadline and the aged ttx. *)
  mutable key_class : int;
  mutable key_deadline : float;
  mutable key_ttx : float;
}

let bits_of_bytes b = 8. *. float_of_int b

(* Stdlib's [min]/[max] on floats, without the polymorphic compare:
   same results, NaN and signed zeros included. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

(* Buffers the rate kernels reuse every step, allocated once per
   [run]: runs on different domains never share one. *)
type workspace = {
  flows : fl array; (* by [idx] *)
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

let workspace ~nlinks flows =
  let hops = Array.fold_left (fun n f -> n + Array.length f.spec.path) 0 flows in
  {
    flows;
    residual = Array.make nlinks 0.;
    count = Array.make nlinks 0;
    demand = Array.make nlinks 0.;
    row = Array.make (nlinks + 1) 0;
    members = Array.make hops 0;
    queued = Array.make nlinks 0;
    heap = Pdq_engine.Heap.create ();
  }

let by_arrival a b =
  match Float.compare a.spec.start b.spec.start with
  | 0 -> Int.compare a.spec.fs_id b.spec.fs_id
  | c -> c

(* PDQ criticality orders under each mode. [Float.compare] orders
   floats, NaN included, as the polymorphic [compare] does. *)
let by_random a b =
  match Float.compare a.rand_crit b.rand_crit with
  | 0 -> Int.compare a.spec.fs_id b.spec.fs_id
  | c -> c

let by_estimate a b =
  match Int.compare a.est_level b.est_level with
  | 0 -> Int.compare a.spec.fs_id b.spec.fs_id
  | c -> c

let by_key a b =
  match Int.compare a.key_class b.key_class with
  | 0 -> (
      match Float.compare a.key_deadline b.key_deadline with
      | 0 -> (
          match Float.compare a.key_ttx b.key_ttx with
          | 0 -> Int.compare a.spec.fs_id b.spec.fs_id
          | c -> c)
      | c -> c)
  | c -> c

let set_key opts f =
  let ttx = f.remaining /. f.nic in
  f.key_ttx <-
    (match opts.aging_rate with
    | Some alpha ->
        Pdq_core.Criticality.aged_tx_time ~aging_rate:alpha ~wait:f.waited
          ~expected_tx_time:ttx
    | None -> ttx);
  match f.deadline_abs with
  | Some d ->
      f.key_class <- 0;
      f.key_deadline <- d
  | None ->
      f.key_class <- 1;
      f.key_deadline <- 0.

(* Infeasibility check for Early Termination / quenching. *)
let infeasible f ~now =
  match f.deadline_abs with
  | None -> false
  | Some d -> now >= d || now +. (f.remaining /. f.nic) > d

let pdq_rates ws opts ~now ~capacity active =
  let residual = ws.residual in
  Array.blit capacity 0 residual 0 (Array.length capacity);
  let order =
    match opts.criticality with
    | Random_criticality -> List.sort by_random active
    | Size_estimation _ -> List.sort by_estimate active
    | Perfect ->
        List.iter (set_key opts) active;
        List.sort by_key active
  in
  List.iter
    (fun f ->
      if opts.early_termination && infeasible f ~now then begin
        f.dead <- true;
        f.rate <- 0.
      end
      else begin
        let path = f.spec.path in
        let r = ref f.nic in
        for i = 0 to Array.length path - 1 do
          r := fmin !r residual.(path.(i))
        done;
        let r = fmax 0. !r in
        f.rate <- r;
        if r > 0. then
          for i = 0 to Array.length path - 1 do
            let l = path.(i) in
            residual.(l) <- residual.(l) -. r
          done
      end)
    order

(* Global max-min fairness via water-filling with a lazy heap of
   per-link fair shares. Links freeze in (share, push seq) order and
   each link's members are visited in reverse [active] order (oldest
   admitted first). Together they fix the float order of the residual
   updates, so both orders are part of the output. *)
let rcp_rates ws ~capacity active =
  let module Heap = Pdq_engine.Heap in
  let { flows; residual; count; row; members; queued; heap; _ } = ws in
  let nlinks = Array.length capacity in
  Array.blit capacity 0 residual 0 nlinks;
  Array.fill count 0 nlinks 0;
  List.iter
    (fun f ->
      f.rate <- -1.;
      let path = f.spec.path in
      for i = 0 to Array.length path - 1 do
        let l = path.(i) in
        count.(l) <- count.(l) + 1
      done)
    active;
  (* Each row is filled back to front, so it lists its flows in reverse
     [active] order: [row.(l)] starts at the end of link [l]'s row and
     steps down to its start. *)
  let ends = ref 0 in
  for l = 0 to nlinks - 1 do
    ends := !ends + count.(l);
    row.(l) <- !ends
  done;
  row.(nlinks) <- !ends;
  List.iter
    (fun f ->
      let path = f.spec.path in
      for i = 0 to Array.length path - 1 do
        let l = path.(i) in
        let slot = row.(l) - 1 in
        row.(l) <- slot;
        members.(slot) <- f.idx
      done)
    active;
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
          let f = flows.(members.(j)) in
          if f.rate < 0. then begin
            f.rate <- fmax 0. fair;
            let path = f.spec.path in
            for i = 0 to Array.length path - 1 do
              let m = path.(i) in
              count.(m) <- count.(m) - 1;
              if count.(m) = 0 then dead := !dead + queued.(m);
              if m <> l then begin
                residual.(m) <- residual.(m) -. f.rate;
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
  List.iter (fun f -> if f.rate < 0. then f.rate <- 0.) active

(* D3: greedy first-come-first-reserve per link in flow arrival order,
   plus the previous step's non-negative fair share. [fs] persists
   across steps (per link). [active] is newest-admitted first, and flows
   are admitted in [by_arrival] order with unique ids, so its reverse is
   the arrival order. *)
let d3_rates ws ~now ~capacity ~fs active =
  let nlinks = Array.length capacity in
  let avail = ws.residual and demand = ws.demand and counts = ws.count in
  Array.blit capacity 0 avail 0 nlinks;
  Array.fill demand 0 nlinks 0.;
  Array.fill counts 0 nlinks 0;
  List.iter
    (fun f ->
      let request =
        match f.deadline_abs with
        | Some d when d > now -> f.remaining /. (d -. now)
        | Some _ -> f.nic
        | None -> 0.
      in
      if (match f.deadline_abs with Some _ -> infeasible f ~now | None -> false)
      then begin
        (* Quenching. *)
        f.dead <- true;
        f.rate <- 0.
      end
      else begin
        let path = f.spec.path in
        let alloc = ref f.nic in
        for i = 0 to Array.length path - 1 do
          let l = path.(i) in
          alloc := fmin !alloc (fmin (request +. fs.(l)) avail.(l))
        done;
        let alloc = fmax 0. !alloc in
        f.rate <- alloc;
        for i = 0 to Array.length path - 1 do
          let l = path.(i) in
          avail.(l) <- avail.(l) -. alloc;
          demand.(l) <- demand.(l) +. request;
          counts.(l) <- counts.(l) + 1
        done
      end)
    (List.rev active);
  (* Fair share for the next interval (non-negative, as in §5.1). *)
  for l = 0 to nlinks - 1 do
    if counts.(l) > 0 then
      fs.(l) <- fmax 0. ((capacity.(l) -. demand.(l)) /. float_of_int counts.(l))
    else fs.(l) <- capacity.(l)
  done

let run ?(dt = 1e-3) ?(init_latency = 5e-4) ?(header_overhead = 56. /. 1500.)
    ?(seed = 1) ?(horizon = 60.) net proto specs =
  let rng = Rng.create seed in
  let goodput_factor = 1. -. header_overhead in
  let ids = Hashtbl.create (List.length specs) in
  let flows =
    List.mapi
      (fun idx spec ->
        if Array.length spec.path = 0 then
          invalid_arg
            (Printf.sprintf "Flowsim.run: flow %d has an empty path" spec.fs_id);
        if Hashtbl.mem ids spec.fs_id then
          invalid_arg
            (Printf.sprintf "Flowsim.run: duplicate flow id %d" spec.fs_id);
        Hashtbl.add ids spec.fs_id ();
        let nic =
          Array.fold_left (fun acc l -> fmin acc net.capacity.(l)) infinity
            spec.path
        in
        {
          spec;
          idx;
          deadline_abs = Option.map (fun d -> spec.start +. d) spec.deadline;
          nic = nic *. goodput_factor;
          remaining = bits_of_bytes spec.size;
          rate = 0.;
          done_at = None;
          dead = false;
          rand_crit = Rng.float rng;
          waited = 0.;
          est_level = 0;
          key_class = 0;
          key_deadline = 0.;
          key_ttx = 0.;
        })
      specs
  in
  let ws =
    workspace ~nlinks:(Array.length net.capacity) (Array.of_list flows)
  in
  let pending = ref (List.sort by_arrival flows) in
  let active = ref [] in
  let fs = Array.make (Array.length net.capacity) 0. in
  let t = ref (match !pending with [] -> 0. | f :: _ -> f.spec.start) in
  let open_flows = ref (List.length flows) in
  while !open_flows > 0 && !t < horizon do
    (* Admit flows whose init latency elapsed. *)
    let rec admit () =
      match !pending with
      | f :: rest when f.spec.start +. init_latency <= !t +. 1e-12 ->
          pending := rest;
          active := f :: !active;
          admit ()
      | _ -> ()
    in
    admit ();
    (* [active] holds only live flows here: the previous step retired
       every dead and finished one. *)
    let live = !active in
    (match proto with
    | Pdq opts -> pdq_rates ws opts ~now:!t ~capacity:net.capacity live
    | Rcp -> rcp_rates ws ~capacity:net.capacity live
    | D3 -> d3_rates ws ~now:!t ~capacity:net.capacity ~fs live);
    (* Advance remaining work; interpolate completion times within the
       step. The goodput factor models header overhead. *)
    let retired = ref false in
    List.iter
      (fun f ->
        if f.dead then begin
          decr open_flows;
          retired := true
        end
        else begin
          let goodput = f.rate *. goodput_factor in
          if goodput <= 0. then f.waited <- f.waited +. dt
          else begin
            let work = goodput *. dt in
            if work >= f.remaining then begin
              let finish = !t +. (f.remaining /. goodput) in
              f.remaining <- 0.;
              f.done_at <- Some finish;
              decr open_flows;
              retired := true
            end
            else begin
              f.remaining <- f.remaining -. work;
              (match proto with
              | Pdq { criticality = Size_estimation quantum; _ } ->
                  let sent_bytes =
                    f.spec.size
                    - int_of_float (f.remaining /. 8.)
                  in
                  f.est_level <- sent_bytes / max 1 quantum
              | _ -> ())
            end
          end
        end)
      live;
    (* Retire once per step. The filter keeps [active]'s order, which
       fixes RCP's per-link member order and so its float sums. *)
    if !retired then
      active := List.filter (fun f -> (not f.dead) && f.done_at = None) !active;
    t := !t +. dt
  done;
  let results =
    List.map
      (fun f ->
        let fct = Option.map (fun d -> d -. f.spec.start) f.done_at in
        let met =
          match (f.done_at, f.deadline_abs) with
          | Some c, Some d -> c <= d
          | Some _, None -> true
          | None, _ -> false
        in
        { spec = f.spec; fct; met_deadline = met; terminated = f.dead })
      flows
    |> Array.of_list
  in
  let deadline_flows =
    Array.to_list results
    |> List.filter (fun (r : flow_result) -> r.spec.deadline <> None)
  in
  let application_throughput =
    match deadline_flows with
    | [] -> 1.
    | dls ->
        float_of_int
          (List.length
             (List.filter (fun (r : flow_result) -> r.met_deadline) dls))
        /. float_of_int (List.length dls)
  in
  let fcts =
    Array.to_list results |> List.filter_map (fun (r : flow_result) -> r.fct)
  in
  {
    flows = results;
    application_throughput;
    mean_fct = (match fcts with [] -> 0. | _ -> List.fold_left ( +. ) 0. fcts /. float_of_int (List.length fcts));
    max_fct = List.fold_left fmax 0. fcts;
    completed = List.length fcts;
  }
