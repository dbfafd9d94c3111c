module Rng = Pdq_engine.Rng
module Sim = Pdq_engine.Sim
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Builder = Pdq_topo.Builder
module Fault_plan = Pdq_faults.Fault_plan
module Json = Pdq_telemetry.Json
module Report = Pdq_check.Report
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Task = Pdq_exec.Task

(* ------------------------------------------------------------------ *)
(* Cases: one fuzzed run as pure data. The JSON form is the replayable
   reproducer artifact, so every field round-trips exactly. *)

type case = {
  protocol : string;
  topo : string;
  pattern : string;
  flows : int;
  mean_bytes : int;
  deadlines : bool;
  seed : int;
  horizon : float;
  faults : Fault_plan.t;
}

let case_to_json c =
  Printf.sprintf
    "{\"protocol\":\"%s\",\"topo\":\"%s\",\"pattern\":\"%s\",\"flows\":%d,\"mean_bytes\":%d,\"deadlines\":%b,\"seed\":%d,\"horizon\":%s,\"faults\":%s}"
    (Json.escape c.protocol)
    (Json.escape c.topo)
    (Json.escape c.pattern)
    c.flows c.mean_bytes c.deadlines c.seed
    (Json.j_float c.horizon)
    (Fault_plan.to_json c.faults)

let case_of_json s =
  match
    let fields = Json.(obj (parse s)) in
    let plan v =
      match Fault_plan.of_json_value v with
      | Ok p -> p
      | Error e -> raise (Json.Parse_error e)
    in
    (* Reproducers written before adversarial events joined the fault
       plan carry them in a separate "adversary" array. *)
    let adversary =
      Option.fold ~none:Fault_plan.empty ~some:plan
        (List.assoc_opt "adversary" fields)
    in
    {
      protocol = Json.str fields "protocol";
      topo = Json.str fields "topo";
      pattern = Json.str fields "pattern";
      flows = Json.int fields "flows";
      mean_bytes = Json.int fields "mean_bytes";
      deadlines = Json.bool fields "deadlines";
      seed = Json.int fields "seed";
      horizon = Json.float fields "horizon";
      faults = Fault_plan.merge (plan (Json.field fields "faults")) adversary;
    }
  with
  | c -> Ok c
  | exception Json.Parse_error msg -> Error ("chaos case: " ^ msg)
  | exception Invalid_argument msg -> Error msg

let key c = Digest.to_hex (Digest.string (case_to_json c))

let scenario_of_case c =
  let ( let* ) = Result.bind in
  let* protocol = Scenario.protocol_of_string c.protocol in
  let* topo = Scenario.topo_of_string c.topo in
  let* pattern = Scenario.pattern_of_string c.pattern in
  let deadlines =
    if c.deadlines then Scenario.Exp_deadlines { mean = 0.02; floor = 0.003 }
    else Scenario.No_deadlines
  in
  let workload =
    Scenario.Synthetic
      {
        pattern;
        flows = c.flows;
        sizes = Scenario.Uniform_paper { mean_bytes = c.mean_bytes };
        deadlines;
      }
  in
  let faults =
    if Fault_plan.is_empty c.faults then Scenario.No_faults
    else
      Scenario.Fault_gen
        { label = "chaos"; plan = (fun ~seed:_ _built -> c.faults) }
  in
  Ok
    (Scenario.make
       ~name:(Printf.sprintf "chaos %s on %s" c.protocol c.topo)
       ~topo ~seed:c.seed ~horizon:c.horizon ~faults ~workload protocol)

let pp_case ppf c =
  Format.fprintf ppf "%s on %s (%s, %d flows, seed %d, %d plan ev)" c.protocol
    c.topo c.pattern c.flows c.seed
    (Fault_plan.length c.faults)

(* ------------------------------------------------------------------ *)
(* Target enumeration: the plans name cables and switches of the
   case's topology, so generation builds a probe instance (same seed —
   wiring-salted families stay aligned) and reads them off. *)

let probe_topo c =
  match scenario_of_case { c with faults = Fault_plan.empty } with
  | Error e -> invalid_arg ("Fuzzer.targets_of_case: " ^ e)
  | Ok sc ->
      let built, _, _ = Scenario.build sc in
      built.Builder.topo

let targets_of_case c =
  let topo = probe_topo c in
  ( Topology.cables topo,
    Fault_plan.switch_cables topo,
    Fault_plan.switches topo )

(* ------------------------------------------------------------------ *)
(* Case generation. All draws come from the caller's rng in a fixed
   order, so a master seed expands into the same campaign on every
   worker layout. *)

let topo_roster = [| "tree"; "bottleneck"; "fat-tree" |]
let pattern_roster = [| "aggregation"; "permutation"; "pairs" |]
let default_protocols = [ "pdq"; "rcp"; "d3"; "tcp" ]

let generate rng ~protocols ~intensity =
  if protocols = [] then invalid_arg "Fuzzer.generate: no protocols";
  let protocols = Array.of_list protocols in
  let protocol = protocols.(Rng.int rng (Array.length protocols)) in
  let topo = topo_roster.(Rng.int rng (Array.length topo_roster)) in
  let pattern = pattern_roster.(Rng.int rng (Array.length pattern_roster)) in
  let flows = 4 + Rng.int rng 13 in
  let mean_bytes = 30_000 * (1 + Rng.int rng 10) in
  let deadlines = Rng.bool rng 0.5 in
  let seed = 1 + Rng.int rng 1_000_000 in
  let horizon = Rng.uniform rng 0.25 0.75 in
  let base =
    {
      protocol;
      topo;
      pattern;
      flows;
      mean_bytes;
      deadlines;
      seed;
      horizon;
      faults = Fault_plan.empty;
    }
  in
  let cables, switch_cables, switches = targets_of_case base in
  let flaps =
    if switch_cables <> [] && Rng.bool rng 0.3 then
      Fault_plan.link_flaps rng ~links:switch_cables ~mtbf:(4. *. horizon)
        ~mttr:(horizon /. 8.) ~until:horizon
    else Fault_plan.empty
  in
  let adversary =
    Fault_plan.random rng ~cables ~switches ~until:horizon ~intensity
      ~count:(1 + Rng.int rng 8)
  in
  { base with faults = Fault_plan.merge flaps adversary }

(* ------------------------------------------------------------------ *)
(* Running one case through the full validation stack. *)

(* A reproducer may name cables its topology lacks: reject it before
   the run, on a probe instance, rather than mid-run. *)
let check_cables c =
  let topo = probe_topo c in
  match Fault_plan.check_cables topo c.faults with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg

let run_case ?budget c =
  let ( let* ) = Result.bind in
  let* sc = scenario_of_case c in
  let* () = check_cables c in
  Ok (Scenario.run_checked ?budget sc)

let signature (checked : Scenario.checked) =
  match checked.Scenario.violations with
  | [] -> None
  | v :: _ -> Some v.Report.invariant

(* ------------------------------------------------------------------ *)
(* Supervised campaign. *)

type verdict = {
  invariant : string option;
  detail : string;
  violations : int;
}

let verdict_of checked =
  match checked.Scenario.violations with
  | [] -> { invariant = None; detail = ""; violations = 0 }
  | v :: _ as vs ->
      {
        invariant = Some v.Report.invariant;
        detail = Format.asprintf "%a" Report.pp v;
        violations = List.length vs;
      }

let verdict_codec : verdict Task.codec =
  {
    Task.encode =
      (fun v ->
        Printf.sprintf "{\"invariant\":%s,\"detail\":\"%s\",\"violations\":%d}"
          (match v.invariant with
          | None -> "null"
          | Some s -> "\"" ^ Json.escape s ^ "\"")
          (Json.escape v.detail) v.violations);
    decode =
      (fun s ->
        let fields = Json.(obj (parse s)) in
        let invariant =
          match Json.field fields "invariant" with
          | Json.Null -> None
          | Json.Str s -> Some s
          | _ -> raise (Json.Parse_error "invariant: expected string")
        in
        {
          invariant;
          detail = Json.str fields "detail";
          violations = Json.int fields "violations";
        });
  }

type campaign = {
  cases : case list;
  verdicts : verdict Task.t list;  (** In case order. *)
  report : Sweep.report;
}

let cases ~runs ~seed ?(protocols = default_protocols) ?(intensity = 0.35) ()
    =
  let rng = Rng.create seed in
  List.init runs (fun _ -> generate rng ~protocols ~intensity)

let fuzz ?jobs ?budget ?checkpoint ?resume ?protocols ?intensity ~runs ~seed
    () =
  let cases = cases ~runs ~seed ?protocols ?intensity () in
  (* The supervisor already runs each attempt under [budget]. *)
  let f c =
    match run_case c with
    | Ok checked -> verdict_of checked
    | Error e -> failwith e
  in
  let { Sweep.tasks; report } =
    Sweep.supervise ?jobs ?budget ?checkpoint ?resume ~codec:verdict_codec ~key
      f cases
  in
  { cases; verdicts = tasks; report }

let first_violation campaign =
  let rec go i cases verdicts =
    match (cases, verdicts) with
    | [], _ | _, [] -> None
    | c :: cs, t :: ts -> (
        match t with
        | Task.Ok { invariant = Some inv; _ } -> Some (i, c, inv)
        | _ -> go (i + 1) cs ts)
  in
  go 0 campaign.cases campaign.verdicts

(* ------------------------------------------------------------------ *)
(* Counterexample shrinking: greedy single-event removal to fixpoint,
   then parameter halving to fixpoint, re-checking after every mutation
   that the *same invariant* still fires. Bounded by [max_runs]
   re-runs; when they run out the best case so far is returned. *)

let remove_at l i = List.filteri (fun j _ -> j <> i) l

(* Halved variants of one event, least-aggressive first. A parameter
   already below noise level stops shrinking, so the loop terminates
   even with a generous [max_runs]. *)
let halve p = if p > 1e-4 then [ p /. 2. ] else []

let halve_event : Fault_plan.event -> _ = function
  | Reorder { a; b; p; hold } ->
      List.map (fun p -> Fault_plan.Reorder { a; b; p; hold }) (halve p)
      @ List.map (fun hold -> Fault_plan.Reorder { a; b; p; hold }) (halve hold)
  | Duplicate { a; b; p } ->
      List.map (fun p -> Fault_plan.Duplicate { a; b; p }) (halve p)
  | Corrupt { a; b; p } ->
      List.map (fun p -> Fault_plan.Corrupt { a; b; p }) (halve p)
  | Jitter { a; b; max_delay } ->
      List.map
        (fun max_delay -> Fault_plan.Jitter { a; b; max_delay })
        (halve max_delay)
  | Clock_skew { switch; skew } ->
      if Float.abs skew > 1e-5 then
        [ Fault_plan.Clock_skew { switch; skew = skew /. 2. } ]
      else []
  | Set_loss { a; b; model = Link.Bernoulli p } ->
      List.map
        (fun p -> Fault_plan.Set_loss { a; b; model = Link.Bernoulli p })
        (halve p)
  | Set_loss { a; b; model = Link.Gilbert ge } ->
      List.map
        (fun loss_bad ->
          Fault_plan.Set_loss
            { a; b; model = Link.Gilbert { ge with Link.loss_bad } })
        (halve ge.Link.loss_bad)
  | Set_loss { model = Link.No_loss; _ }
  | Link_down _ | Link_up _ | Switch_reboot _ | Clear _ ->
      []

type shrunk = {
  original : case;
  minimal : case;
  invariant : string;
  runs_used : int;  (** Re-executions the shrinker spent. *)
}

let with_events c evs = { c with faults = Fault_plan.of_events evs }

(* Every case one event removal away from [c], first event first. *)
let removals c =
  let evs = Fault_plan.events c.faults in
  List.mapi (fun i _ -> with_events c (remove_at evs i)) evs

(* Every case one parameter halving away from [c], event by event. *)
let halvings c =
  let evs = Fault_plan.events c.faults in
  List.concat
    (List.mapi
       (fun i (t, ev) ->
         List.map
           (fun ev' ->
             with_events c
               (List.mapi (fun j e -> if j = i then (t, ev') else e) evs))
           (halve_event ev))
       evs)

let shrink ?budget ?(max_runs = 150) c0 ~invariant =
  let used = ref 0 in
  let reproduces c =
    !used < max_runs
    && begin
         incr used;
         match run_case ?budget c with
         | Ok checked ->
             List.exists
               (fun v -> v.Report.invariant = invariant)
               checked.Scenario.violations
         | Error _ | (exception Sim.Cancelled _) -> false
       end
  in
  (* Take the first reproducing candidate and start over from it
     until none reproduces. *)
  let rec fixpoint candidates c =
    match List.find_opt reproduces (candidates c) with
    | Some c' -> fixpoint candidates c'
    | None -> c
  in
  (* Phase 1: greedy single-event removal; phase 2: parameter
     halving. *)
  let minimal = c0 |> fixpoint removals |> fixpoint halvings in
  { original = c0; minimal; invariant; runs_used = !used }
