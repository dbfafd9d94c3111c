module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Topology = Pdq_net.Topology
module Link = Pdq_net.Link
module Trace = Pdq_telemetry.Trace
module Metrics = Pdq_telemetry.Metrics
module Fault_plan = Pdq_faults.Fault_plan

let k_telemetry = Sim.Kind.register "telemetry.sample"

type protocol =
  | Pdq of Pdq_core.Config.t
  | Pdq_estimated of { config : Pdq_core.Config.t; quantum : int }
  | Mpdq of {
      config : Pdq_core.Config.t;
      subflows : int;
      paths : (src:int -> dst:int -> int array list) option;
    }
  | Rcp
  | D3
  | Tcp

let mpdq ?paths ~subflows () = Mpdq { config = Pdq_core.Config.full; subflows; paths }

let protocol_name = function
  | Pdq cfg -> Pdq_core.Config.name cfg
  | Pdq_estimated { quantum; _ } -> Printf.sprintf "PDQ(est %dKB)" (quantum / 1000)
  | Mpdq { subflows; _ } -> Printf.sprintf "M-PDQ(%d)" subflows
  | Rcp -> "RCP"
  | D3 -> "D3"
  | Tcp -> "TCP"

type port_view = {
  pv_link : int;
  stored : int;
  sending : int;
  paused : int;
  capacity_bound : int;
  max_list : int;
  line_rate : float;
  mature_rate_sum : float;
  inconsistencies : string list;
}

type telemetry = {
  sinks : Trace.sink list;
  metrics : Metrics.t option;
  metrics_every : float;
  port_probe : (now:float -> port_view -> unit) option;
}

let no_telemetry =
  { sinks = []; metrics = None; metrics_every = 1e-3; port_probe = None }

type driver =
  spawn:(Context.flow_spec -> Context.flow) -> Trace.sink list

type options = {
  seed : int;
  horizon : float;
  faults : Fault_plan.t option;
  telemetry : telemetry;
  driver : driver option;
}

let default_options =
  {
    seed = 1;
    horizon = 10.;
    faults = None;
    telemetry = no_telemetry;
    driver = None;
  }

type flow_result = {
  spec : Context.flow_spec;
  fct : float option;
  met_deadline : bool;
  terminated : bool;
  aborted : bool;
}

type result = {
  flows : flow_result array;
  application_throughput : float;
  mean_fct : float;
  completed : int;
  aborted : int;
  counters : (string * int) list;
  sim_end : float;
  ctx : Context.t;
}

let execute ?(options = default_options) ~topo protocol specs =
  let sim = Topology.sim topo in
  let rng = Rng.create options.seed in
  (* An application driver (e.g. the job tracker) gets a spawn hook
     that registers and starts a flow mid-run. The hook is wired to
     the live context and protocol just before the initial flows
     start; a driver calling it earlier (i.e. outside a sink
     callback) is a programming error. *)
  let spawn_ref =
    ref (fun (_ : Context.flow_spec) : Context.flow ->
        invalid_arg "Runner: spawn called before the protocol was installed")
  in
  let driver_sinks =
    match options.driver with
    | Some d -> d ~spawn:(fun spec -> !spawn_ref spec)
    | None -> []
  in
  (* The trace bus: with no sink at all it is {!Trace.null} and the run
     is bit-for-bit identical to an uninstrumented one. *)
  let trace =
    Trace.create
      ~clock:(fun () -> Sim.now sim)
      ~sinks:(options.telemetry.sinks @ driver_sinks)
  in
  if Trace.active trace then
    Topology.iter_links (fun l -> Link.set_trace l trace) topo;
  let ctx = Context.create ~trace ~sim ~topo ~rng () in
  (* Each event family is installed, and draws, only when the plan
     holds one of its events, so [faults = Some Fault_plan.empty] is
     bit-for-bit [faults = None]. *)
  let plan = Option.value options.faults ~default:Fault_plan.empty in
  let holds p = List.exists (fun (_, ev) -> p ev) (Fault_plan.events plan) in
  (* Adversarial conditions interpose on the fresh links before the
     protocol installs, on their own rng, so they leave the run's
     stream untouched. *)
  if holds Fault_plan.is_adversarial then
    Adversary.install ~sim ~topo ~rng:(Rng.create (options.seed lxor 0x0C4A05))
      plan;
  (* Live per-cause watchdog-abort counters: incremented the moment a
     sender gives up, not just folded from the tally at the end, so a
     chaos run can assert on them mid-flight by stable name. *)
  (match options.telemetry.metrics with
  | Some m ->
      Context.on_abort ctx (fun ~cause ->
          Metrics.incr (Metrics.counter m (Metrics.Name.watchdog_abort cause)) ())
  | None -> ());
  (* The PDQ family's flow starter and probes over its scheduler
     state; RCP/D3/TCP ports hold no flow list, so they expose no
     view. *)
  let pdq_family start_flow p =
    let view ~link =
      let port = Pdq_proto.port p link in
      let open Pdq_core in
      {
        pv_link = link;
        stored = Flow_list.length (Switch_port.flow_list port);
        sending = Switch_port.kappa port;
        paused = Switch_port.paused_count port;
        capacity_bound = Switch_port.list_capacity port;
        max_list = (Switch_port.config port).Config.max_list_size;
        line_rate = Link.rate (Topology.link topo link);
        mature_rate_sum = Switch_port.mature_rate_sum port;
        inconsistencies = Switch_port.invariant_errors port;
      }
    in
    ( start_flow,
      (fun ~link -> Some (Pdq_proto.port_flow_counts p ~link)),
      Some view )
  in
  let (start_flow : Context.flow -> unit),
      (port_counts : link:int -> (int * int) option),
      (port_view : (link:int -> port_view) option) =
    match protocol with
    | Pdq config ->
        let p = Pdq_proto.install ~config ~ctx ~until:options.horizon () in
        pdq_family (Pdq_proto.start_flow p) p
    | Pdq_estimated { config; quantum } ->
        let p =
          Pdq_proto.install
            ~size_info:(Pdq_core.Sender.Estimated quantum)
            ~config ~ctx ~until:options.horizon ()
        in
        pdq_family (Pdq_proto.start_flow p) p
    | Mpdq { config; subflows; paths } ->
        let p =
          Mpdq_proto.install ~config ~ctx ~until:options.horizon ~subflows
            ?paths ()
        in
        pdq_family (Mpdq_proto.start_flow p) (Mpdq_proto.pdq p)
    | Rcp ->
        let p = Rcp_proto.install ~ctx ~until:options.horizon in
        ( Rcp_proto.start_flow p,
          (fun ~link -> Some (Rcp_proto.flow_count p ~link, 0)),
          None )
    | D3 ->
        let p = D3_proto.install ~ctx ~until:options.horizon in
        ( D3_proto.start_flow p,
          (fun ~link -> Some (D3_proto.flow_count p ~link, 0)),
          None )
    | Tcp ->
        let p = Tcp_proto.install ~ctx () in
        (Tcp_proto.start_flow p, (fun ~link:_ -> None), None)
  in
  (* Arm the driver's spawn hook: registration pins the route and
     emits [Flow_admitted]; every protocol's [start_flow] launches
     immediately when [spec.start <= now], so flows spawned from a
     sink callback mid-run join the simulation at the current time. *)
  spawn_ref :=
    (fun spec ->
      let f = Context.add_flow ctx spec in
      start_flow f;
      f);
  (* Link, loss and reboot events, after the protocol so its reboot
     hooks are registered. *)
  if holds (fun ev -> not (Fault_plan.is_adversarial ev)) then
    Fault_plan.install ~sim ~topo ~rng:(Rng.split rng)
      ?trace:
        (if Trace.active trace then
           Some
             (fun ~time:_ ev ->
               Trace.emit trace
                 (Trace.Fault
                    { desc = Format.asprintf "%a" Fault_plan.pp_event ev }))
         else None)
      ~on_change:(fun () -> Context.reroute ctx)
      ~on_reboot:(fun node -> Context.reboot_switch ctx ~node)
      plan;
  (* One probe grid for every observer: per-link utilization and queue
     depth plus per-port active/paused flow counts into the metrics
     registry, and every PDQ port's scheduler state to the validation
     probe, in one walk over the links per tick. Nothing is scheduled
     when neither is attached (or the protocol has no PDQ port to
     probe), so plain runs see no extra simulator events; both
     observers only read. *)
  let metrics = options.telemetry.metrics in
  let port_probe =
    match (options.telemetry.port_probe, port_view) with
    | Some on_port, Some view -> Some (on_port, view)
    | _ -> None
  in
  if Option.is_some metrics || Option.is_some port_probe then begin
    let every = max options.telemetry.metrics_every 1e-6 in
    let rec tick () =
      let time = Sim.now sim in
      Topology.iter_links
        (fun l ->
          let id = Link.id l in
          (match metrics with
          | Some m -> (
              Metrics.sample m ~time ~name:(Metrics.Name.link_util id)
                ~value:(Link.utilization l ~now:time);
              Metrics.sample m ~time
                ~name:(Metrics.Name.link_queue_bytes id)
                ~value:(float_of_int (Link.queue_bytes l));
              match port_counts ~link:id with
              | Some (active, paused) ->
                  Metrics.sample m ~time
                    ~name:(Metrics.Name.port_flows_active id)
                    ~value:(float_of_int active);
                  Metrics.sample m ~time
                    ~name:(Metrics.Name.port_flows_paused id)
                    ~value:(float_of_int paused)
              | None -> ())
          | None -> ());
          match port_probe with
          | Some (on_port, view) -> on_port ~now:time (view ~link:id)
          | None -> ())
        topo;
      if time +. every <= options.horizon then
        ignore (Sim.schedule_k sim k_telemetry ~delay:every tick)
    in
    ignore (Sim.schedule_k sim k_telemetry ~delay:0. tick)
  end;
  let flows = List.map (Context.add_flow ctx) specs in
  List.iter start_flow flows;
  Context.on_all_complete ctx (fun () -> Sim.stop sim);
  Sim.run ~until:options.horizon sim;
  let results =
    List.map
      (fun (f : Context.flow) ->
        let fct =
          Option.map (fun c -> c -. f.Context.spec.Context.start) f.Context.completed_at
        in
        let met =
          match (f.Context.completed_at, f.Context.deadline_abs) with
          | Some c, Some d -> c <= d
          | _, None -> f.Context.completed_at <> None
          | None, Some _ -> false
        in
        {
          spec = f.Context.spec;
          fct;
          met_deadline = met;
          terminated = f.Context.terminated;
          aborted = f.Context.aborted;
        })
      (Context.flows ctx)
    |> Array.of_list
  in
  let deadline_flows =
    Array.of_list
      (List.filter
         (fun (r : flow_result) -> r.spec.Context.deadline <> None)
         (Array.to_list results))
  in
  let application_throughput =
    if Array.length deadline_flows = 0 then 1.
    else
      Pdq_engine.Stats.fraction (fun (r : flow_result) -> r.met_deadline)
        deadline_flows
  in
  let fcts =
    Array.to_list results
    |> List.filter_map (fun (r : flow_result) -> r.fct)
    |> Array.of_list
  in
  (* Per-cause counters: watchdog aborts and fault events from the
     context tally, plus link-level drop causes summed over the
     topology. Zero counts are omitted so fault-free runs report []. *)
  let counters =
    let drop_loss = ref 0 and drop_overflow = ref 0 and drop_down = ref 0 in
    for i = 0 to Topology.link_count topo - 1 do
      let l = Topology.link topo i in
      drop_loss := !drop_loss + Link.dropped_loss l;
      drop_overflow := !drop_overflow + Link.dropped_overflow l;
      drop_down := !drop_down + Link.dropped_down l
    done;
    Pdq_engine.Stats.Tally.to_list (Context.tally ctx)
    @ List.filter
        (fun (_, n) -> n > 0)
        [
          ("drop.loss", !drop_loss);
          ("drop.overflow", !drop_overflow);
          ("drop.down", !drop_down);
        ]
  in
  (* Fold the run's counters and the FCT distribution into the metrics
     registry so the exported CSV/JSONL is self-contained. *)
  (match options.telemetry.metrics with
  | Some m ->
      Metrics.add_counters m counters;
      let h = Metrics.histogram m Metrics.Name.flow_fct_ms in
      Array.iter
        (fun (r : flow_result) ->
          match r.fct with
          | Some f -> Metrics.observe h (1000. *. f)
          | None -> ())
        results
  | None -> ());
  {
    flows = results;
    application_throughput;
    mean_fct = Pdq_engine.Stats.mean fcts;
    completed = Array.length fcts;
    aborted =
      Array.fold_left
        (fun n (r : flow_result) -> if r.aborted then n + 1 else n)
        0 results;
    counters;
    sim_end = Sim.now sim;
    ctx;
  }

