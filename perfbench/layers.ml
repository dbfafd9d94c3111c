(* Per-layer instrumentation, attached from outside the simulator.

   Nothing here changes the code under test: a traced run wraps each
   link's delivery callback ([Link.receiver]), taps its transmitter
   ([Link.on_transmit]), attaches a [Profiler] to the run's simulator
   and a [port_probe] to the runner options. All of them only observe,
   so a traced run produces bit-for-bit the results of an untraced
   one; the benchmark checks that by comparing output digests. *)

module Sim = Pdq_engine.Sim
module Profiler = Pdq_engine.Profiler
module Link = Pdq_net.Link
module Packet = Pdq_net.Packet
module Topology = Pdq_net.Topology
module Runner = Pdq_transport.Runner
module Builder = Pdq_topo.Builder

(* Monotonic nanoseconds; never steps backwards like the wall clock. *)
let now () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Per-packet timing. Deliveries run into the millions, so they are
   aggregated — count, total and a log2 histogram of nanoseconds —
   instead of being stored as spans. *)

type acc = { mutable count : int; mutable ns : int; hist : int array }

let acc () = { count = 0; ns = 0; hist = Array.make 48 0 }

let log2_bucket ns =
  let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
  min 47 (go 0 ns)

let add a ns =
  a.count <- a.count + 1;
  a.ns <- a.ns + ns;
  let b = log2_bucket ns in
  a.hist.(b) <- a.hist.(b) + 1

let merge_acc into a =
  into.count <- into.count + a.count;
  into.ns <- into.ns + a.ns;
  Array.iteri (fun i c -> into.hist.(i) <- into.hist.(i) + c) a.hist

(* What one traced scenario observed. Created per run (and per worker
   domain on a sweep), merged on the main domain afterwards. *)
type probe = {
  switch_rx : acc;  (* deliveries into a switch: forwarding + scheduling *)
  host_rx : acc;  (* deliveries into a host: the transport endpoint *)
  mutable data_rx : int;  (* deliveries carrying a Data packet *)
  mutable queue_max : int;  (* largest output queue seen at a transmit *)
  mutable port_views : int;  (* port-probe views of an occupied port *)
  mutable stored_sum : int;
  mutable stored_max : int;
  mutable paused_sum : int;
}

let probe () =
  {
    switch_rx = acc ();
    host_rx = acc ();
    data_rx = 0;
    queue_max = 0;
    port_views = 0;
    stored_sum = 0;
    stored_max = 0;
    paused_sum = 0;
  }

let merge_probe into p =
  merge_acc into.switch_rx p.switch_rx;
  merge_acc into.host_rx p.host_rx;
  into.data_rx <- into.data_rx + p.data_rx;
  into.queue_max <- max into.queue_max p.queue_max;
  into.port_views <- into.port_views + p.port_views;
  into.stored_sum <- into.stored_sum + p.stored_sum;
  into.stored_max <- max into.stored_max p.stored_max;
  into.paused_sum <- into.paused_sum + p.paused_sum

(* Interpose on a freshly built scenario, between [Scenario.build] and
   [Runner.execute]. Returns the options to execute with. *)
let attach p profiler (built : Builder.built) (options : Runner.options) =
  let topo = built.Builder.topo in
  Sim.set_profiler (Topology.sim topo) (Some profiler);
  Topology.iter_links
    (fun l ->
      let into =
        match Topology.kind topo (Link.dst l) with
        | Topology.Switch -> p.switch_rx
        | Topology.Host -> p.host_rx
      in
      let deliver = Link.receiver l in
      Link.set_receiver l (fun pkt ->
          if pkt.Packet.kind = Packet.Data then p.data_rx <- p.data_rx + 1;
          let t0 = now () in
          deliver pkt;
          add into (now () - t0));
      Link.on_transmit l (fun ~now:_ ~bytes ->
          (* Fired after the packet left the queue: add it back. *)
          let q = Link.queue_bytes l + bytes in
          if q > p.queue_max then p.queue_max <- q))
    topo;
  let port_probe ~now:_ (v : Runner.port_view) =
    if v.Runner.stored > 0 then begin
      p.port_views <- p.port_views + 1;
      p.stored_sum <- p.stored_sum + v.Runner.stored;
      p.stored_max <- max p.stored_max v.Runner.stored;
      p.paused_sum <- p.paused_sum + v.Runner.paused
    end
  in
  {
    options with
    Runner.telemetry =
      { options.Runner.telemetry with Runner.port_probe = Some port_probe };
  }

(* ------------------------------------------------------------------ *)
(* Spans, recorded around the calls the benchmark makes into each
   layer. Kept in memory (main domain only) and written at exit. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  start_ns : int;
  end_ns : int;
  domain : int;
}

type spans = { epoch : int; mutable next : int; mutable rev : span list }

let spans () = { epoch = now (); next = 1; rev = [] }

let span s ?(parent = 0) ?(domain = 0) name ~start_ns ~end_ns =
  let id = s.next in
  s.next <- id + 1;
  s.rev <-
    {
      id;
      parent;
      name;
      start_ns = start_ns - s.epoch;
      end_ns = end_ns - s.epoch;
      domain;
    }
    :: s.rev;
  id

(* One JSON object per line: every span, then one summary line per
   per-packet layer with its count, total and log2 histogram
   ([log2_ns.(b)] counts deliveries of 2^b to 2^(b+1) ns). *)
let write_spans path s layers =
  let dir = Filename.dirname path in
  if dir <> "" && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%s,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"domain\":%d}\n"
        sp.id
        (if sp.parent = 0 then "null" else string_of_int sp.parent)
        (Json.quote sp.name) sp.start_ns sp.end_ns sp.domain)
    (List.rev s.rev);
  List.iter
    (fun (name, a) ->
      Printf.fprintf oc "{\"layer\":%s,\"count\":%d,\"total_ns\":%d,\"log2_ns\":[%s]}\n"
        (Json.quote name) a.count a.ns
        (String.concat "," (Array.to_list (Array.map string_of_int a.hist))))
    layers;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Isolated Switch_port stage: [flows] concurrent synthetic flows, each
   header processed forward then reverse once per round, on a fresh
   PDQ(Full) port. Headers and round times are allocated before the
   clock starts, so the minor words counted are the port's own. *)

module Switch_port = Pdq_core.Switch_port
module Header = Pdq_core.Header

type stage = { fwd_ns : float; rev_ns : float; words : float; calls : int }

let line_rate = 1e9

(* Mean cost of one clock read, taken off each timed batch below: with
   a single flow a batch is one call, and a read costs a fair share of
   it. *)
let clock_ns =
  lazy
    (let n = 100_000 in
     let t0 = now () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now ()))
     done;
     float_of_int (now () - t0) /. float_of_int n)

let switch_port_stage ~flows ~calls =
  let port =
    Switch_port.create ~config:Pdq_core.Config.full ~switch_id:1
      ~link_rate:line_rate ~init_rtt:1.5e-4 ()
  in
  let headers =
    Array.init flows (fun i ->
        Header.make ~rate:line_rate
          ~expected_tx_time:(float_of_int (i + 1) *. 1e-4)
          ~rtt:1.5e-4 ())
  in
  let rounds = max 1 (calls / flows) in
  (* A list keeps each time boxed once, up front. *)
  let times = List.init rounds (fun r -> float_of_int r *. 1e-5) in
  let fwd = ref 0 and rev = ref 0 in
  let w0 = Gc.minor_words () in
  List.iter
    (fun now_s ->
      let t0 = now () in
      for i = 0 to flows - 1 do
        let h = headers.(i) in
        h.Header.rate <- line_rate;
        h.Header.pause_by <- None;
        Switch_port.process_forward port h ~flow_id:i ~now:now_s
      done;
      let t1 = now () in
      for i = 0 to flows - 1 do
        Switch_port.process_reverse port headers.(i) ~flow_id:i ~now:now_s
      done;
      let t2 = now () in
      fwd := !fwd + (t1 - t0);
      rev := !rev + (t2 - t1))
    times;
  let words = Gc.minor_words () -. w0 in
  let n = float_of_int (rounds * flows) in
  let per_call total =
    Float.max 0.
      ((float_of_int total -. (float_of_int rounds *. Lazy.force clock_ns)) /. n)
  in
  {
    fwd_ns = per_call !fwd;
    rev_ns = per_call !rev;
    words;
    calls = 2 * rounds * flows;
  }
