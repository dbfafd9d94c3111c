module Rng = Pdq_engine.Rng
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Builder = Pdq_topo.Builder
module Fault_plan = Pdq_faults.Fault_plan
module Json = Pdq_telemetry.Json
module Report = Pdq_check.Report
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Task = Pdq_exec.Task
module Exec_opts = Pdq_exec.Exec_opts

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
  adversary : Adversary_plan.t;
}

let case_to_json c =
  Printf.sprintf
    "{\"protocol\":\"%s\",\"topo\":\"%s\",\"pattern\":\"%s\",\"flows\":%d,\"mean_bytes\":%d,\"deadlines\":%b,\"seed\":%d,\"horizon\":%s,\"faults\":%s,\"adversary\":%s}"
    (Json.escape c.protocol)
    (Json.escape c.topo)
    (Json.escape c.pattern)
    c.flows c.mean_bytes c.deadlines c.seed
    (Json.j_float c.horizon)
    (Fault_plan.to_json c.faults)
    (Adversary_plan.to_json c.adversary)

let case_of_json s =
  match
    let fields = Json.(obj (parse s)) in
    let plan k of_json_value =
      match of_json_value (Json.field fields k) with
      | Ok p -> p
      | Error e -> raise (Json.Parse_error e)
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
      faults = plan "faults" Fault_plan.of_json_value;
      adversary = plan "adversary" Adversary_plan.of_json_value;
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
  Format.fprintf ppf
    "%s on %s (%s, %d flows, seed %d, %d fault ev, %d adversary ev)"
    c.protocol c.topo c.pattern c.flows c.seed (Fault_plan.length c.faults)
    (Adversary_plan.length c.adversary)

(* ------------------------------------------------------------------ *)
(* Target enumeration: the plans name cables and switches of the
   case's topology, so generation builds a probe instance (same seed —
   wiring-salted families stay aligned) and reads them off. *)

let targets_of_case c =
  match scenario_of_case { c with faults = Fault_plan.empty } with
  | Error e -> invalid_arg ("Fuzzer.targets_of_case: " ^ e)
  | Ok sc ->
      let built, _, _ = Scenario.build sc in
      let topo = built.Builder.topo in
      ( Adversary.cables topo,
        Fault_plan.switch_cables topo,
        Fault_plan.switches topo )

(* ------------------------------------------------------------------ *)
(* Case generation. All draws come from the caller's rng in a fixed
   order, so a master seed expands into the same campaign on every
   worker layout. *)

let topo_roster = [| "tree"; "bottleneck"; "fat-tree" |]
let pattern_roster = [| "aggregation"; "permutation"; "pairs" |]
let default_protocols = [ "pdq"; "rcp"; "d3"; "tcp" ]

let generate rng ~protocols ~intensity index =
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
      adversary = Adversary_plan.empty;
    }
  in
  let cables, switch_cables, switches = targets_of_case base in
  let faults =
    if switch_cables <> [] && Rng.bool rng 0.3 then
      Fault_plan.link_flaps rng ~links:switch_cables ~mtbf:(4. *. horizon)
        ~mttr:(horizon /. 8.) ~until:horizon
    else Fault_plan.empty
  in
  let adversary =
    Adversary_plan.random rng ~cables ~switches ~until:horizon ~intensity
      ~count:(1 + Rng.int rng 8)
  in
  ignore index;
  { base with faults; adversary }

(* ------------------------------------------------------------------ *)
(* Running one case through the full validation stack. *)

let adversary_rng_of c = Rng.create (c.seed lxor 0x5EED_CAFE)

let prepare_of c built =
  if not (Adversary_plan.is_empty c.adversary) then
    let topo = built.Builder.topo in
    Adversary.install ~sim:(Topology.sim topo) ~topo ~rng:(adversary_rng_of c)
      c.adversary

let run_case ?opts c =
  match scenario_of_case c with
  | Error e -> Error e
  | Ok sc -> Ok (Scenario.run_checked ?opts ~prepare:(prepare_of c) sc)

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
  List.init runs (generate rng ~protocols ~intensity)

let fuzz ?opts ?checkpoint ?resume ?protocols ?intensity ?on_event ~runs ~seed
    () =
  let cases = cases ~runs ~seed ?protocols ?intensity () in
  let f c =
    match run_case ?opts c with
    | Ok checked -> verdict_of checked
    | Error e -> failwith e
  in
  let { Sweep.tasks; report } =
    Sweep.supervise ?opts ?checkpoint ?resume ~codec:verdict_codec ?on_event
      ~key f cases
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
   that the *same invariant* still fires. Bounded by [budget] re-runs;
   when the budget runs out the best case so far is returned. *)

let remove_at l i = List.filteri (fun j _ -> j <> i) l

(* Halved variants of one adversary event, least-aggressive first;
   parameters below noise level stop shrinking so the loop terminates
   even with a generous budget. *)
let halve_adversary_event ev =
  let h p = if p > 1e-4 then Some (p /. 2.) else None in
  match (ev : Adversary_plan.event) with
  | Adversary_plan.Reorder { a; b; p; hold } ->
      List.filter_map Fun.id
        [
          Option.map
            (fun p -> Adversary_plan.Reorder { a; b; p; hold })
            (h p);
          Option.map
            (fun hold -> Adversary_plan.Reorder { a; b; p; hold })
            (h hold);
        ]
  | Adversary_plan.Duplicate { a; b; p } ->
      List.filter_map Fun.id
        [ Option.map (fun p -> Adversary_plan.Duplicate { a; b; p }) (h p) ]
  | Adversary_plan.Corrupt { a; b; p } ->
      List.filter_map Fun.id
        [ Option.map (fun p -> Adversary_plan.Corrupt { a; b; p }) (h p) ]
  | Adversary_plan.Jitter { a; b; max_delay } ->
      List.filter_map Fun.id
        [
          Option.map
            (fun max_delay -> Adversary_plan.Jitter { a; b; max_delay })
            (h max_delay);
        ]
  | Adversary_plan.Clear _ -> []
  | Adversary_plan.Clock_skew { switch; skew } ->
      if Float.abs skew > 1e-5 then
        [ Adversary_plan.Clock_skew { switch; skew = skew /. 2. } ]
      else []

let halve_fault_event ev =
  let h p = if p > 1e-4 then Some (p /. 2.) else None in
  match (ev : Fault_plan.event) with
  | Fault_plan.Loss_burst { a; b; loss; duration } ->
      List.filter_map Fun.id
        [
          Option.map
            (fun loss -> Fault_plan.Loss_burst { a; b; loss; duration })
            (h loss);
          Option.map
            (fun duration -> Fault_plan.Loss_burst { a; b; loss; duration })
            (h duration);
        ]
  | Fault_plan.Gilbert_loss { a; b; ge } ->
      List.filter_map Fun.id
        [
          Option.map
            (fun loss_bad ->
              Fault_plan.Gilbert_loss { a; b; ge = { ge with Link.loss_bad } })
            (h ge.Link.loss_bad);
        ]
  | Fault_plan.Link_down _ | Fault_plan.Link_up _ | Fault_plan.Clear_loss _
  | Fault_plan.Switch_reboot _ ->
      []

type shrunk = {
  original : case;
  minimal : case;
  invariant : string;
  runs_used : int;  (** Re-executions the shrinker spent. *)
}

let shrink ?opts ?(budget = 150) c0 ~invariant =
  let used = ref 0 in
  let reproduces c =
    !used < budget
    && begin
         incr used;
         match run_case ?opts c with
         | Ok checked ->
             List.exists
               (fun v -> v.Report.invariant = invariant)
               checked.Scenario.violations
         | Error _ -> false
       end
  in
  let with_adversary c evs =
    { c with adversary = Adversary_plan.of_events evs }
  in
  let with_faults c evs = { c with faults = Fault_plan.of_events evs } in
  (* Phase 1: greedy element removal, restarting from the head after
     every successful deletion, until no single deletion reproduces. *)
  let rec remove_pass c =
    let aevs = Adversary_plan.events c.adversary in
    let fevs = Fault_plan.events c.faults in
    let try_one i =
      if i < List.length aevs then with_adversary c (remove_at aevs i)
      else with_faults c (remove_at fevs (i - List.length aevs))
    in
    let n = List.length aevs + List.length fevs in
    let rec first i =
      if i >= n then None
      else
        let c' = try_one i in
        if reproduces c' then Some c' else first (i + 1)
    in
    match first 0 with Some c' -> remove_pass c' | None -> c
  in
  (* Phase 2: parameter halving, event by event, to fixpoint. *)
  let rec halve_pass c =
    let aevs = Adversary_plan.events c.adversary in
    let fevs = Fault_plan.events c.faults in
    let candidates =
      List.concat
        (List.mapi
           (fun i (t, ev) ->
             List.map
               (fun ev' ->
                 with_adversary c
                   (List.mapi
                      (fun j e -> if j = i then (t, ev') else e)
                      aevs))
               (halve_adversary_event ev))
           aevs)
      @ List.concat
          (List.mapi
             (fun i (t, ev) ->
               List.map
                 (fun ev' ->
                   with_faults c
                     (List.mapi
                        (fun j e -> if j = i then (t, ev') else e)
                        fevs))
                 (halve_fault_event ev))
             fevs)
    in
    match List.find_opt reproduces candidates with
    | Some c' -> halve_pass c'
    | None -> c
  in
  let minimal = halve_pass (remove_pass c0) in
  { original = c0; minimal; invariant; runs_used = !used }
