module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Topology = Pdq_net.Topology
module Link = Pdq_net.Link
module Fluid = Pdq_sched.Fluid

type flow_bound = { ob_flow : int; bound : float; fct : float option }

type t = {
  bounds : flow_bound array;
  violations : Report.violation list;
  sim_mean_fct : float;
  sjf_mean_fct : float;
  edf_deadline_frac : float;
  gap : float;
}

(* Goodput per line-rate bit: 1460 payload bytes in a 1500-byte
   packet. This is TCP's payload, the largest of any protocol here
   (RCP, D3 and PDQ packets carry 1452, 1448 and 1444 bytes, their
   scheduling headers taken out), so a bound computed with it stays a
   lower bound for every protocol. *)
let efficiency = 1460. /. 1500.

(* Contention-free lower bound: even alone on the network, the flow
   must push its application bits through its slowest link and cross
   every hop's propagation and processing delay once. Headers,
   handshake and store-and-forward only add to this, so
   [bound <= true FCT] for every correct simulator. *)
let guaranteed_bound ~topo ~links ~size =
  let min_rate, latency =
    Array.fold_left
      (fun (r, lat) id ->
        let l = Topology.link topo id in
        (min r (Link.rate l), lat +. Link.prop_delay l +. Link.proc_delay l))
      (infinity, 0.) links
  in
  (Pdq_engine.Units.bytes_to_bits size /. max min_rate 1.) +. latency

let check ~per_flow ~result ~topo () =
  let n = Array.length result.Runner.flows in
  let links_of = Array.init n (Context.route result.Runner.ctx) in
  (* Per-flow guaranteed bounds and their assertions. *)
  let violations = ref [] in
  let bounds =
    Array.init n (fun i ->
        let r = result.Runner.flows.(i) in
        let bound =
          guaranteed_bound ~topo ~links:links_of.(i)
            ~size:r.Runner.spec.Context.size
        in
        (match r.Runner.fct with
        | Some fct when per_flow && fct < bound -. 1e-9 ->
            violations :=
              Report.violation ~time:result.Runner.sim_end
                ~entity:(Printf.sprintf "flow %d" i)
                ~invariant:"oracle"
                (Printf.sprintf
                   "simulated FCT %.6g < contention-free lower bound %.6g"
                   fct bound)
              :: !violations
        | _ -> ());
        { ob_flow = i; bound; fct = r.Runner.fct })
  in
  (* Bottleneck grouping for the centralized references: each flow is
     assigned to the most-shared of its minimum-rate route links, and
     each group is scheduled by an idealized preemptive scheduler at
     that link's goodput rate. The SJF (SRPT) reference bounds mean
     FCT; the EDF + Moore–Hodgson reference bounds deadline
     throughput. These are aggregate references, not per-flow bounds —
     a distributed protocol may beat EDF for an individual flow. *)
  let usage = Hashtbl.create 32 in
  Array.iter
    (Array.iter (fun l ->
         Hashtbl.replace usage l
           (1 + Option.value ~default:0 (Hashtbl.find_opt usage l))))
    links_of;
  let bottleneck i =
    let links = links_of.(i) in
    let min_rate =
      Array.fold_left
        (fun r l -> min r (Link.rate (Topology.link topo l)))
        infinity links
    in
    Array.fold_left
      (fun best l ->
        if Link.rate (Topology.link topo l) > min_rate *. (1. +. 1e-9) then
          best
        else
          let u = Option.value ~default:0 (Hashtbl.find_opt usage l) in
          match best with
          | Some (bl, bu) when bu > u || (bu = u && bl <= l) -> best
          | _ -> Some (l, u))
      None links
    |> Option.map fst
  in
  let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i _ ->
      match bottleneck i with
      | None -> ()
      | Some l -> (
          match Hashtbl.find_opt groups l with
          | Some fl -> fl := i :: !fl
          | None -> Hashtbl.replace groups l (ref [ i ])))
    result.Runner.flows;
  let sjf_fcts = ref [] in
  let edf_met = ref 0 and edf_deadline_total = ref 0 in
  Hashtbl.iter
    (fun link flows ->
      let rate = Link.rate (Topology.link topo link) *. efficiency in
      let jobs =
        List.rev_map
          (fun i ->
            let spec = result.Runner.flows.(i).Runner.spec in
            let deadline =
              Option.map (fun d -> spec.Context.start +. d)
                spec.Context.deadline
            in
            Fluid.job ?deadline ~release:spec.Context.start ~id:i
              ~size:(Pdq_engine.Units.bytes_to_bits spec.Context.size)
              ())
          !flows
      in
      let release =
        List.fold_left
          (fun acc (j : Fluid.job) -> (j.Fluid.job_id, j.Fluid.release) :: acc)
          [] jobs
      in
      List.iter
        (fun (c : Fluid.completion) ->
          let r = List.assoc c.Fluid.c_job release in
          sjf_fcts := (c.Fluid.finish -. r) :: !sjf_fcts)
        (Fluid.srpt ~rate jobs);
      let deadline_jobs =
        List.filter (fun (j : Fluid.job) -> j.Fluid.deadline <> None) jobs
      in
      if deadline_jobs <> [] then begin
        edf_deadline_total := !edf_deadline_total + List.length deadline_jobs;
        let kept = Fluid.moore_hodgson ~rate jobs in
        edf_met :=
          !edf_met
          + List.length
              (List.filter
                 (fun (j : Fluid.job) -> List.mem j.Fluid.job_id kept)
                 deadline_jobs)
      end)
    groups;
  let mean = function
    | [] -> Float.nan
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let sim_fcts =
    Array.to_list result.Runner.flows
    |> List.filter_map (fun (r : Runner.flow_result) -> r.Runner.fct)
  in
  let sim_mean = mean sim_fcts and sjf_mean = mean !sjf_fcts in
  {
    bounds;
    violations = List.rev !violations;
    sim_mean_fct = sim_mean;
    sjf_mean_fct = sjf_mean;
    edf_deadline_frac =
      (if !edf_deadline_total = 0 then 1.
       else float_of_int !edf_met /. float_of_int !edf_deadline_total);
    gap = sim_mean /. sjf_mean;
  }
