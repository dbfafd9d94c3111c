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
  deadline_abs : float option;
  nic : float; (* min capacity along the path: max possible rate *)
  mutable remaining : float; (* goodput bits *)
  mutable rate : float;
  mutable done_at : float option;
  mutable dead : bool; (* early-terminated / quenched *)
  rand_crit : float;
  mutable waited : float; (* cumulative paused time (aging) *)
  mutable est_level : int; (* size-estimation criticality level *)
}

let bits_of_bytes b = 8. *. float_of_int b

(* PDQ criticality comparison under the chosen mode. *)
let pdq_compare opts a b =
  match opts.criticality with
  | Random_criticality -> compare (a.rand_crit, a.spec.fs_id) (b.rand_crit, b.spec.fs_id)
  | Size_estimation _ ->
      compare (a.est_level, a.spec.fs_id) (b.est_level, b.spec.fs_id)
  | Perfect ->
      let key f =
        let ttx = f.remaining /. f.nic in
        let ttx =
          match opts.aging_rate with
          | Some alpha ->
              Pdq_core.Criticality.aged_tx_time ~aging_rate:alpha ~wait:f.waited
                ~expected_tx_time:ttx
          | None -> ttx
        in
        match f.deadline_abs with
        | Some d -> (0, d, ttx, f.spec.fs_id)
        | None -> (1, 0., ttx, f.spec.fs_id)
      in
      compare (key a) (key b)

(* Infeasibility check for Early Termination / quenching. *)
let infeasible f ~now =
  match f.deadline_abs with
  | None -> false
  | Some d -> now >= d || now +. (f.remaining /. f.nic) > d

let pdq_rates opts ~now ~capacity active =
  let residual = Array.copy capacity in
  let order = List.sort (pdq_compare opts) active in
  List.iter
    (fun f ->
      if opts.early_termination && infeasible f ~now then begin
        f.dead <- true;
        f.rate <- 0.
      end
      else begin
        let r =
          Array.fold_left
            (fun acc l -> min acc residual.(l))
            f.nic f.spec.path
        in
        let r = max 0. r in
        f.rate <- r;
        if r > 0. then
          Array.iter (fun l -> residual.(l) <- residual.(l) -. r) f.spec.path
      end)
    order

(* Global max-min fairness via water-filling with a lazy heap of
   per-link fair shares. *)
let rcp_rates ~capacity active =
  let nlinks = Array.length capacity in
  let residual = Array.copy capacity in
  let count = Array.make nlinks 0 in
  let members = Array.make nlinks [] in
  List.iter
    (fun f ->
      f.rate <- -1.;
      Array.iter
        (fun l ->
          count.(l) <- count.(l) + 1;
          members.(l) <- f :: members.(l))
        f.spec.path)
    active;
  let heap = Pdq_engine.Heap.create () in
  let push l =
    if count.(l) > 0 then
      Pdq_engine.Heap.push heap (residual.(l) /. float_of_int count.(l)) l
  in
  for l = 0 to nlinks - 1 do
    push l
  done;
  let rec drain () =
    match Pdq_engine.Heap.pop heap with
    | None -> ()
    | Some (key, l) ->
        if count.(l) > 0 then begin
          let fair = residual.(l) /. float_of_int count.(l) in
          if fair > key +. 1e-6 then begin
            (* Stale entry: requeue with the current fair share. *)
            Pdq_engine.Heap.push heap fair l;
            drain ()
          end
          else begin
            (* Freeze this link: all its unassigned flows are
               bottlenecked here. *)
            List.iter
              (fun f ->
                if f.rate < 0. then begin
                  f.rate <- max 0. fair;
                  Array.iter
                    (fun m ->
                      count.(m) <- count.(m) - 1;
                      if m <> l then begin
                        residual.(m) <- residual.(m) -. f.rate;
                        push m
                      end)
                    f.spec.path
                end)
              members.(l);
            drain ()
          end
        end
        else drain ()
  in
  drain ();
  List.iter (fun f -> if f.rate < 0. then f.rate <- 0.) active

(* D3: greedy first-come-first-reserve per link in flow arrival order,
   plus the previous step's non-negative fair share. [fs] persists
   across steps (per link). *)
let d3_rates ~now ~capacity ~fs active =
  let nlinks = Array.length capacity in
  let avail = Array.copy capacity in
  let demand = Array.make nlinks 0. in
  let counts = Array.make nlinks 0 in
  let order =
    List.sort
      (fun a b -> compare (a.spec.start, a.spec.fs_id) (b.spec.start, b.spec.fs_id))
      active
  in
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
        let alloc =
          Array.fold_left
            (fun acc l -> min acc (min (request +. fs.(l)) avail.(l)))
            f.nic f.spec.path
        in
        let alloc = max 0. alloc in
        f.rate <- alloc;
        Array.iter
          (fun l ->
            avail.(l) <- avail.(l) -. alloc;
            demand.(l) <- demand.(l) +. request;
            counts.(l) <- counts.(l) + 1)
          f.spec.path
      end)
    order;
  (* Fair share for the next interval (non-negative, as in §5.1). *)
  for l = 0 to nlinks - 1 do
    if counts.(l) > 0 then
      fs.(l) <- max 0. ((capacity.(l) -. demand.(l)) /. float_of_int counts.(l))
    else fs.(l) <- capacity.(l)
  done

let run ?(dt = 1e-3) ?(init_latency = 5e-4) ?(header_overhead = 56. /. 1500.)
    ?(seed = 1) ?(horizon = 60.) net proto specs =
  let rng = Rng.create seed in
  let goodput_factor = 1. -. header_overhead in
  let flows =
    List.map
      (fun spec ->
        if Array.length spec.path = 0 then
          invalid_arg
            (Printf.sprintf "Flowsim.run: flow %d has an empty path" spec.fs_id);
        let nic =
          Array.fold_left (fun acc l -> min acc net.capacity.(l)) infinity
            spec.path
        in
        {
          spec;
          deadline_abs = Option.map (fun d -> spec.start +. d) spec.deadline;
          nic = nic *. goodput_factor;
          remaining = bits_of_bytes spec.size;
          rate = 0.;
          done_at = None;
          dead = false;
          rand_crit = Rng.float rng;
          waited = 0.;
          est_level = 0;
        })
      specs
  in
  let pending =
    ref
      (List.sort
         (fun a b -> compare (a.spec.start, a.spec.fs_id) (b.spec.start, b.spec.fs_id))
         flows)
  in
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
    | Pdq opts -> pdq_rates opts ~now:!t ~capacity:net.capacity live
    | Rcp -> rcp_rates ~capacity:net.capacity live
    | D3 -> d3_rates ~now:!t ~capacity:net.capacity ~fs live);
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
    max_fct = List.fold_left max 0. fcts;
    completed = List.length fcts;
  }
