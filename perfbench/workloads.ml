(* The four benchmark workloads: their inputs, generated from the seed,
   and one operation on each — a packet-level scenario or a flow-level
   solve — with the check that its output is sane and the digest that
   pins it.

   Inputs are a pure function of (workload, seed, scale): scenario [i]
   of a batch gets seed [seed + i], instance [j] of the flow-level
   workload gets seed [seed + j]. *)

module Scenario = Pdq_exec.Scenario
module Runner = Pdq_transport.Runner
module Context = Pdq_transport.Context
module Builder = Pdq_topo.Builder
module Topology = Pdq_net.Topology
module Link = Pdq_net.Link
module Router = Pdq_net.Router
module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Flowsim = Pdq_flowsim.Flowsim

(* How much of a workload one invocation uses: the measured batch, the
   subset the traced pass replays, or the smoke test's slice. *)
type scale = Batch | Subset | Smoke

type packet = { scenarios : Scenario.t array; jobs : int }
type flow = { servers : int; per_server : int; seeds : int list }
type inputs = Packet of packet | Flow of flow

type t = { name : string; inputs : seed:int -> scale -> inputs }

let protocol name =
  match Scenario.protocol_of_string name with
  | Ok p -> p
  | Error e -> invalid_arg e

let uniform_100k = Scenario.Uniform_paper { mean_bytes = 100_000 }

let synthetic ~topo ~pattern ~flows ~deadlines ~seed proto =
  Scenario.make ~name:"perfbench" ~topo ~seed ~horizon:5.
    ~workload:
      (Scenario.Synthetic { pattern; flows; sizes = uniform_100k; deadlines })
    (protocol proto)

let paper_deadlines = Scenario.Exp_deadlines { mean = 0.02; floor = 0.003 }

let by_scale ~batch ~subset ~smoke = function
  | Batch -> batch
  | Subset -> subset
  | Smoke -> smoke

(* Scenario [i] of a batch is [scenario (seed + i) i]. *)
let packet_workload name ~sizes ?(jobs = 1) scenario =
  {
    name;
    inputs =
      (fun ~seed scale ->
        Packet
          {
            scenarios = Array.init (sizes scale) (fun i -> scenario (seed + i) i);
            jobs;
          });
  }

(* One port, 128 competing PDQ flows with deadlines: the control path
   (pause, probe, Early Start/Termination, rate-controller and watchdog
   timers). Only a quarter of the hops carry data; paths are 2 hops and
   the event heap stays shallow. *)
let pdq_incast =
  packet_workload "pdq-incast"
    ~sizes:(by_scale ~batch:150 ~subset:40 ~smoke:6)
    (fun seed _ ->
      synthetic
        ~topo:(Scenario.Bottleneck { senders = 32 })
        ~pattern:Scenario.Aggregation ~flows:128 ~deadlines:paper_deadlines
        ~seed "pdq")

(* The PDQ data path at scale: a permutation over the 5-hop paths of a
   k=8 fat-tree, most deliveries landing on switches, a heap several
   times deeper than pdq-incast's, and short flow lists — so a
   Switch_port change should move pdq-incast, not this. *)
let pdq_fattree =
  packet_workload "pdq-fattree"
    ~sizes:(by_scale ~batch:30 ~subset:8 ~smoke:1)
    (fun seed _ ->
      synthetic
        ~topo:(Scenario.Fat_tree { k = 8 })
        ~pattern:Scenario.Random_permutation ~flows:128
        ~deadlines:Scenario.No_deadlines ~seed "pdq")

(* The Fig. 3a recipe — aggregation on the 12-server tree, every flow
   count against every protocol — as thousands of short runs through
   Sweep on two domains: set-up, executor and cross-domain GC cost,
   and the baselines a PDQ-only change must not slow. Scenario [i]
   takes configuration [i mod 20]. *)
let mixed_flows = [| 2; 5; 10; 15; 20 |]
let mixed_protocols = [| "pdq"; "rcp"; "d3"; "tcp" |]

let mixed_sweep =
  packet_workload "mixed-sweep"
    ~sizes:(by_scale ~batch:2000 ~subset:800 ~smoke:80)
    ~jobs:2
    (fun seed i ->
      let config = i mod 20 in
      synthetic ~topo:Scenario.default_tree ~pattern:Scenario.Aggregation
        ~flows:mixed_flows.(config / 4)
        ~deadlines:paper_deadlines ~seed
        mixed_protocols.(config mod 4))

(* The paper's large-scale path (Fig 8): flow-level PDQ, RCP and D3 on
   a 4096-server fat-tree. It bypasses the engine, links and
   transports, so a packet-path change should leave it unchanged;
   routing and the solver dominate. *)
let flowsim_4k =
  let instances = by_scale ~batch:3 ~subset:1 ~smoke:1 in
  {
    name = "flowsim-4k";
    inputs =
      (fun ~seed scale ->
        Flow
          {
            (* The smoke slice keeps the recipe on a k=8 tree. *)
            servers = (if scale = Smoke then 82 else 4096);
            per_server = 2;
            seeds = List.init (instances scale) (fun j -> seed + j);
          });
  }

let all = [ pdq_incast; pdq_fattree; mixed_sweep; flowsim_4k ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Output digests. Floats are hashed through their exact hex form, so a
   digest changes exactly when some output bit does. *)

let opt_h = function Some f -> Printf.sprintf "%h" f | None -> "-"
let digest_of b = Digest.to_hex (Digest.string (Buffer.contents b))
let batch_digest ds = Digest.to_hex (Digest.string (String.concat "" ds))

let packet_digest (r : Runner.result) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (f : Runner.flow_result) ->
      let s = f.Runner.spec in
      Printf.bprintf b "%d>%d:%d:%s:%s:%b%b%b;" s.Context.src s.Context.dst
        s.Context.size (opt_h s.Context.deadline) (opt_h f.Runner.fct)
        f.Runner.met_deadline f.Runner.terminated f.Runner.aborted)
    r.Runner.flows;
  Printf.bprintf b "|%h|%h|%d|%d|%h" r.Runner.application_throughput
    r.Runner.mean_fct r.Runner.completed r.Runner.aborted r.Runner.sim_end;
  List.iter (fun (k, v) -> Printf.bprintf b "|%s=%d" k v) r.Runner.counters;
  digest_of b

(* ------------------------------------------------------------------ *)
(* One packet-level scenario. *)

type instrument = Plain | Traced of Pdq_engine.Profiler.t | Memory_sink

type run = {
  digest : string;
  error : string option;  (* raised, or an output failed its check *)
  flows : int;
  completed : int;
  fct_sum : float;  (* seconds, over completed flows *)
  deadline_flows : int;
  deadline_met : int;
  hops : int;  (* packet deliveries over all links *)
  drops_overflow : int;
  events : int;
  words : float;  (* minor words allocated by Runner.execute *)
  build_start : int;
  build_end : int;
  exec_start : int;
  exec_end : int;
  domain : int;
  probe : Layers.probe option;
}

(* An output is sane when every flow completed or ended otherwise
   ([ended]: terminated or aborted), and no completion beat the
   serialization of its bytes at the fastest line rate in the network.
   The first violation, if any. *)
let check_flows ~rate flows ~size ~fct ~ended =
  Array.fold_left
    (fun err f ->
      match (err, fct f) with
      | Some _, _ -> err
      | None, Some t when t < float_of_int (8 * size f) /. rate ->
          Some "a flow completed faster than line rate allows"
      | None, None when not (ended f) -> Some "a flow never finished"
      | None, _ -> None)
    None flows

let run_packet ?(instrument = Plain) (sc : Scenario.t) =
  let build_start = Layers.now () in
  let blank =
    {
      digest = "";
      error = None;
      flows = 0;
      completed = 0;
      fct_sum = 0.;
      deadline_flows = 0;
      deadline_met = 0;
      hops = 0;
      drops_overflow = 0;
      events = 0;
      words = 0.;
      build_start;
      build_end = build_start;
      exec_start = build_start;
      exec_end = build_start;
      domain = (Domain.self () :> int);
      probe = None;
    }
  in
  match Scenario.build sc with
  | exception e -> { blank with error = Some (Printexc.to_string e) }
  | built, specs, options -> (
      let build_end = Layers.now () in
      let topo = built.Builder.topo in
      let options, probe =
        match instrument with
        | Plain -> (options, None)
        | Traced profiler ->
            let p = Layers.probe () in
            (Layers.attach p profiler built options, Some p)
        | Memory_sink ->
            let sinks = [ Pdq_telemetry.Trace.memory () ] in
            ( {
                options with
                Runner.telemetry = { options.Runner.telemetry with Runner.sinks };
              },
              None )
      in
      let w0 = Gc.minor_words () in
      let exec_start = Layers.now () in
      let outcome =
        match Runner.execute ~options ~topo sc.Scenario.protocol specs with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      let exec_end = Layers.now () in
      let words = Gc.minor_words () -. w0 in
      let hops = ref 0 and drops = ref 0 and rate = ref 0. in
      Topology.iter_links
        (fun l ->
          hops := !hops + Link.delivered l;
          drops := !drops + Link.dropped_overflow l;
          rate := Float.max !rate (Link.rate l))
        topo;
      let run =
        {
          blank with
          flows = List.length specs;
          hops = !hops;
          drops_overflow = !drops;
          events = Sim.events_executed (Topology.sim topo);
          words;
          build_end;
          exec_start;
          exec_end;
          probe;
        }
      in
      match outcome with
      | Error e -> { run with error = Some e }
      | Ok r ->
          let flows = r.Runner.flows in
          let with_deadline (f : Runner.flow_result) =
            f.Runner.spec.Context.deadline <> None
          in
          let count p = Array.fold_left (fun n f -> if p f then n + 1 else n) 0 flows in
          {
            run with
            digest = packet_digest r;
            error =
              check_flows ~rate:!rate flows
                ~size:(fun f -> f.Runner.spec.Context.size)
                ~fct:(fun f -> f.Runner.fct)
                ~ended:(fun f -> f.Runner.terminated || f.Runner.aborted);
            flows = Array.length flows;
            completed = r.Runner.completed;
            fct_sum = r.Runner.mean_fct *. float_of_int r.Runner.completed;
            deadline_flows = count with_deadline;
            deadline_met = count (fun f -> with_deadline f && f.Runner.met_deadline);
          })

(* ------------------------------------------------------------------ *)
(* Flow-level instances: the Fig 8 recipe — a fat-tree for [servers],
   [per_server] random permutations routed by ECMP, 100 KB mean
   sizes, no deadlines. *)

type instance = {
  seed : int;
  net : Flowsim.net;
  specs : Flowsim.flow_spec list;
  nflows : int;
  max_capacity : float;
  build_ns : int;  (* topology construction *)
  route_ns : int;  (* Router.create and every path_links call *)
  path_calls : int;
  path_ns : int;  (* the path_links calls alone, each timed *)
}

let flow_protocols =
  [
    ("pdq", Flowsim.Pdq Flowsim.pdq_defaults);
    ("rcp", Flowsim.Rcp);
    ("d3", Flowsim.D3);
  ]

let make_instance (f : flow) ~seed =
  let t0 = Layers.now () in
  let built =
    Builder.fat_tree_for_servers ~sim:(Sim.create ()) ~servers:f.servers ()
  in
  let t1 = Layers.now () in
  let rng = Rng.create (3 + seed) in
  let pairs =
    List.concat
      (List.init f.per_server (fun _ ->
           Pdq_workload.Pattern.random_permutation ~hosts:built.Builder.hosts
             ~rng))
  in
  let router = Router.create built.Builder.topo in
  let path_ns = ref 0 in
  let paths =
    List.mapi
      (fun i (p : Pdq_workload.Pattern.pair) ->
        let c0 = Layers.now () in
        let path =
          Router.path_links router ~src:p.Pdq_workload.Pattern.src
            ~dst:p.Pdq_workload.Pattern.dst ~choice:i
        in
        path_ns := !path_ns + (Layers.now () - c0);
        path)
      pairs
  in
  let t2 = Layers.now () in
  let sizes = Scenario.size_dist uniform_100k and srng = Rng.create (0xF8 + (seed * 37)) in
  let specs =
    List.mapi
      (fun i path ->
        {
          Flowsim.fs_id = i;
          path;
          size = Pdq_workload.Size_dist.sample sizes srng;
          deadline = None;
          start = 0.;
        })
      paths
  in
  let net = Flowsim.net_of_topology built.Builder.topo in
  {
    seed;
    net;
    specs;
    nflows = List.length specs;
    max_capacity = Array.fold_left Float.max 0. net.Flowsim.capacity;
    build_ns = t1 - t0;
    route_ns = t2 - t1;
    path_calls = List.length pairs;
    path_ns = !path_ns;
  }

type solve = {
  s_digest : string;
  s_error : string option;
  s_flows : int;
  s_completed : int;
  s_fct_sum : float;
  s_start : int;
  s_end : int;
}

let flow_digest (r : Flowsim.result) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (f : Flowsim.flow_result) ->
      Printf.bprintf b "%s:%b%b;" (opt_h f.Flowsim.fct) f.Flowsim.met_deadline
        f.Flowsim.terminated)
    r.Flowsim.flows;
  Printf.bprintf b "|%h|%h|%h|%d" r.Flowsim.application_throughput
    r.Flowsim.mean_fct r.Flowsim.max_fct r.Flowsim.completed;
  digest_of b

let run_solve inst proto =
  let s_start = Layers.now () in
  match Flowsim.run ~seed:inst.seed inst.net proto inst.specs with
  | exception e ->
      {
        s_digest = "";
        s_error = Some (Printexc.to_string e);
        s_flows = inst.nflows;
        s_completed = 0;
        s_fct_sum = 0.;
        s_start;
        s_end = Layers.now ();
      }
  | r ->
      let s_end = Layers.now () in
      {
        s_digest = flow_digest r;
        s_error =
          check_flows ~rate:inst.max_capacity r.Flowsim.flows
            ~size:(fun f -> f.Flowsim.spec.Flowsim.size)
            ~fct:(fun f -> f.Flowsim.fct)
            ~ended:(fun f -> f.Flowsim.terminated);
        s_flows = Array.length r.Flowsim.flows;
        s_completed = r.Flowsim.completed;
        s_fct_sum = r.Flowsim.mean_fct *. float_of_int r.Flowsim.completed;
        s_start;
        s_end;
      }
