(* Tests for pdq_net + pdq_topo: links, queues, topologies, routing. *)

module Sim = Pdq_engine.Sim
module Units = Pdq_engine.Units
module Rng = Pdq_engine.Rng
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Router = Pdq_net.Router
module Builder = Pdq_topo.Builder

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)

let mk_packet ?(bytes = 1500) ~now () =
  Packet.make ~flow:0 ~src:0 ~dst:1 ~kind:Packet.Data
    ~payload_bytes:(bytes - Packet.header_bytes) ~payload:Packet.No_payload ~now ()

(* ------------------------------------------------------------------ *)
(* Link *)

let mk_link ?(rate = Units.gbps 1.) ?(buffer = Units.mbyte 4.) sim =
  Link.create ~sim ~id:0 ~src:0 ~dst:1 ~rate ~prop_delay:(Units.us 0.1)
    ~proc_delay:(Units.us 25.) ~buffer_bytes:buffer ()

let test_link_delivery_time () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let arrival = ref nan in
  Link.set_receiver link (fun _ -> arrival := Sim.now sim);
  Link.send link (mk_packet ~now:0. ());
  Sim.run sim;
  (* 1500 B at 1 Gbps = 12 us serialization + 0.1 us prop + 25 us proc. *)
  let expected = 12e-6 +. 0.1e-6 +. 25e-6 in
  if not (feq expected !arrival) then
    Alcotest.failf "arrival %.9f, expected %.9f" !arrival expected

let test_link_serialization_fifo () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let order = ref [] in
  Link.set_receiver link (fun p -> order := p.Packet.seq :: !order);
  for i = 0 to 4 do
    Link.send link
      (Packet.make ~flow:0 ~src:0 ~dst:1 ~kind:Packet.Data ~payload_bytes:1460
         ~seq:i ~payload:Packet.No_payload ~now:0. ())
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Alcotest.(check int) "all delivered" 5 (Link.delivered link)

let seq_packet seq =
  Packet.make ~flow:0 ~src:0 ~dst:1 ~kind:Packet.Data ~payload_bytes:1460 ~seq
    ~payload:Packet.No_payload ~now:0. ()

(* Bursts of uneven size, each only partly drained before the next, so
   the link's ring wraps around and grows while wrapped. *)
let test_link_fifo_growth_wraparound () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let order = ref [] in
  Link.set_receiver link (fun p -> order := p.Packet.seq :: !order);
  let next = ref 0 in
  List.iter
    (fun burst ->
      for _ = 1 to burst do
        Link.send link (seq_packet !next);
        incr next
      done;
      (* About half the burst's serialization time. *)
      Sim.run sim ~until:(Sim.now sim +. (float_of_int burst *. 6e-6)))
    [ 5; 12; 3; 20; 1; 40; 7; 64; 2; 33 ];
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO order" (List.init !next Fun.id)
    (List.rev !order);
  Alcotest.(check int) "all delivered" !next (Link.delivered link)

(* A link keeps no delivered packet alive: only the first packet it
   ever queued stays reachable, as the filler of its ring. *)
let test_link_releases_delivered () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  let n = 40 in
  let weak = Weak.create n in
  let send i =
    let p = seq_packet i in
    Weak.set weak i (Some p);
    Link.send link p
  in
  for i = 0 to n - 1 do
    send i;
    if i mod 7 = 6 then Sim.run sim
  done;
  Sim.run sim;
  Gc.full_major ();
  Alcotest.(check int) "all delivered" n !got;
  let alive = List.filter (Weak.check weak) (List.init n Fun.id) in
  Alcotest.(check (list int)) "only the filler is reachable" [ 0 ] alive;
  (* The link itself must still be reachable for the check to mean
     anything. *)
  Alcotest.(check int) "link counters" n (Link.delivered link)

(* Once its ring has grown, a link queues and delivers packets of any
   size without allocating: the one allocation left is the boxed
   serialization delay (2 words), made only when a packet's size differs
   from the previous one's. Here two packets in three change size, so
   4/3 words per packet; any other per-packet block costs at least 2
   more words, so the bound is 2. *)
let test_link_alloc_free () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  let burst = 32 in
  let n = 10_000 in
  let packets =
    Array.init n (fun seq ->
        Packet.make ~flow:0 ~src:0 ~dst:1 ~kind:Packet.Data
          ~payload_bytes:(if seq mod 3 = 0 then 0 else 1460)
          ~seq ~payload:Packet.No_payload ~now:0. ())
  in
  let send_bursts ~from ~upto =
    let i = ref from in
    while !i < upto do
      for _ = 1 to min burst (upto - !i) do
        Link.send link packets.(!i);
        incr i
      done;
      Sim.run sim
    done
  in
  send_bursts ~from:0 ~upto:(4 * burst);
  let w0 = Gc.minor_words () in
  send_bursts ~from:(4 * burst) ~upto:n;
  let per_packet =
    (Gc.minor_words () -. w0) /. float_of_int (n - (4 * burst))
  in
  Alcotest.(check int) "all delivered" n !got;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per packet < 2 (got %.3f)" per_packet)
    true (per_packet < 2.)

let test_link_tail_drop () =
  let sim = Sim.create () in
  (* Buffer fits only two full packets. *)
  let link = mk_link ~buffer:3200 sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  for _ = 1 to 5 do
    Link.send link (mk_packet ~now:0. ())
  done;
  Sim.run sim;
  Alcotest.(check int) "delivered limited by buffer" 2 !got;
  Alcotest.(check int) "drops counted" 3 (Link.dropped link)

let test_link_queue_accounting () =
  let sim = Sim.create () in
  let link = mk_link sim in
  Link.set_receiver link (fun _ -> ());
  Link.send link (mk_packet ~now:0. ());
  Link.send link (mk_packet ~now:0. ());
  Alcotest.(check int) "queued bytes" 3000 (Link.queue_bytes link);
  Sim.run sim;
  Alcotest.(check int) "drained" 0 (Link.queue_bytes link)

let test_link_loss () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  Link.set_loss_model link (Link.Bernoulli 0.5) ~rng:(Rng.create 42);
  for _ = 1 to 1000 do
    Link.send link (mk_packet ~now:0. ())
  done;
  Sim.run sim;
  let frac = float_of_int !got /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "~half delivered (got %.3f)" frac)
    true
    (frac > 0.42 && frac < 0.58)

(* Down-link semantics: drops happen at admission (counted as
   dropped_down), packets already queued still drain, and bringing the
   link back up restores delivery. *)
let test_link_down_up () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  Link.send link (mk_packet ~now:0. ());
  Link.send link (mk_packet ~now:0. ());
  Alcotest.(check bool) "starts up" true (Link.is_up link);
  Link.set_up link false;
  Alcotest.(check int) "queued survive the failure" 3000
    (Link.queue_bytes link);
  Link.send link (mk_packet ~now:0. ());
  Link.send link (mk_packet ~now:0. ());
  Sim.run sim;
  Alcotest.(check int) "queued packets drained" 2 !got;
  Alcotest.(check int) "admission drops counted" 2 (Link.dropped_down link);
  Alcotest.(check int) "no loss drops" 0 (Link.dropped_loss link);
  Link.set_up link true;
  Link.send link (mk_packet ~now:(Sim.now sim) ());
  Sim.run sim;
  Alcotest.(check int) "delivery restored" 3 !got

(* Gilbert-Elliott: deterministic for a fixed seed, and burstier than
   Bernoulli at the same average loss — long loss-free stretches
   alternating with black-out runs. *)
let test_link_gilbert_loss () =
  let run seed =
    let sim = Sim.create () in
    let link = mk_link sim in
    let delivered = ref [] in
    let n = ref 0 in
    Link.set_receiver link (fun _ -> delivered := !n :: !delivered);
    Link.set_loss_model link
      (Link.Gilbert
         { Link.p_gb = 0.01; p_bg = 0.1; loss_good = 0.; loss_bad = 1. })
      ~rng:(Rng.create seed);
    for i = 1 to 2000 do
      n := i;
      Link.send link (mk_packet ~now:(Sim.now sim) ());
      Sim.run sim
    done;
    List.rev !delivered
  in
  let a = run 7 and b = run 7 in
  Alcotest.(check bool) "same seed, same drop pattern" true (a = b);
  let frac = float_of_int (List.length a) /. 2000. in
  (* Stationary bad-state probability 0.01/(0.01+0.1) ~ 9%. *)
  Alcotest.(check bool)
    (Printf.sprintf "~91%% delivered (got %.3f)" frac)
    true
    (frac > 0.82 && frac < 0.97);
  (* Burstiness: consecutive losses must occur far more often than the
     squared loss rate would allow under Bernoulli. *)
  let losses = ref 0 and paired = ref 0 in
  let prev_lost = ref false in
  let delivered = Array.make 2001 false in
  List.iter (fun i -> delivered.(i) <- true) a;
  for i = 1 to 2000 do
    if not delivered.(i) then begin
      incr losses;
      if !prev_lost then incr paired
    end;
    prev_lost := not delivered.(i)
  done;
  Alcotest.(check bool) "losses come in runs" true
    (float_of_int !paired > 0.5 *. float_of_int !losses)

let test_link_tap () =
  let sim = Sim.create () in
  let link = mk_link sim in
  Link.set_receiver link (fun _ -> ());
  let taps = ref 0 in
  Link.on_transmit link (fun ~now:_ ~bytes -> taps := !taps + bytes);
  Link.send link (mk_packet ~now:0. ());
  Sim.run sim;
  Alcotest.(check int) "tap saw the bytes" 1500 !taps;
  Alcotest.(check int) "bytes_sent" 1500 (Link.bytes_sent link)

(* ------------------------------------------------------------------ *)
(* Topology wiring *)

let test_no_handler_carries_node_id () =
  let sim = Sim.create () in
  let topo = Topology.create ~sim () in
  let a = Topology.add_host topo in
  let b = Topology.add_host topo in
  Topology.connect topo a b;
  (* [b] never got a handler: delivery must raise [No_handler b], not a
     generic failure, so the wiring bug names the culprit node. *)
  Link.send (List.hd (Topology.cable topo ~a ~b)) (mk_packet ~now:0. ());
  (match Sim.run sim with
  | () -> Alcotest.fail "expected No_handler"
  | exception Topology.No_handler id ->
      Alcotest.(check int) "exception names the node" b id);
  (* Installing the handler afterwards makes delivery work. *)
  let got = ref 0 in
  Topology.set_handler topo b (fun _ -> incr got);
  Link.send (List.hd (Topology.cable topo ~a ~b)) (mk_packet ~now:0. ());
  Sim.run sim;
  Alcotest.(check int) "delivered after set_handler" 1 !got

(* ------------------------------------------------------------------ *)
(* Topologies *)

(* Every accessor that takes a node or link id rejects one past the
   count (a spare slot of the grown arrays) and a negative one, instead
   of reaching another node's or link's state. *)
let test_out_of_range_ids () =
  let built, _ = Builder.single_bottleneck ~sim:(Sim.create ()) ~senders:2 () in
  let topo = built.Builder.topo in
  let rejects what f i =
    match f i with
    | _ -> Alcotest.failf "%s %d: accepted" what i
    | exception Invalid_argument _ -> ()
  in
  let nodes = Topology.node_count topo and links = Topology.link_count topo in
  List.iter
    (fun i ->
      rejects "kind" (fun i -> ignore (Topology.kind topo i)) i;
      rejects "rack_of" (fun i -> ignore (Topology.rack_of topo i)) i;
      rejects "links_from" (fun i -> ignore (Topology.links_from topo i)) i;
      rejects "set_handler" (fun i -> Topology.set_handler topo i ignore) i)
    [ nodes; -1 ];
  List.iter
    (fun i ->
      rejects "link" (fun i -> ignore (Topology.link topo i)) i;
      rejects "link_up" (fun i -> ignore (Topology.link_up topo i)) i;
      rejects "link_src" (fun i -> ignore (Topology.link_src topo i)) i;
      rejects "link_dst" (fun i -> ignore (Topology.link_dst topo i)) i;
      rejects "link_rate" (fun i -> ignore (Topology.link_rate topo i)) i)
    [ links; -1 ];
  (* Node 0 keeps its own (unset) handler. *)
  let peer = fst (List.hd (Topology.links_from topo 0)) in
  Alcotest.check_raises "node 0 still unhandled" (Topology.No_handler 0)
    (fun () ->
      Link.send
        (List.hd (Topology.cable topo ~a:peer ~b:0))
        (mk_packet ~now:0. ());
      Sim.run (Topology.sim topo))

(* Building the 4096-server fat-tree and reading every link's rate, as
   the flow-level simulator does, allocates a few minor words per
   directed link: no link object, closure or boxed float each. *)
let test_link_table_alloc () =
  let w0 = Gc.minor_words () in
  let built =
    Builder.fat_tree_for_servers ~sim:(Sim.create ()) ~servers:4096 ()
  in
  let net = Pdq_flowsim.Flowsim.net_of_topology built.Builder.topo in
  let words = Gc.minor_words () -. w0 in
  let links = Topology.link_count built.Builder.topo in
  Alcotest.(check int) "one rate per link" links
    (Array.length net.Pdq_flowsim.Flowsim.capacity);
  let per_link = words /. float_of_int links in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per directed link < 10 (got %.1f)" per_link)
    true (per_link < 10.)

(* A link's [Link.t] is made on first use and kept: [link], [reverse]
   and [cable] return the same objects. A cable set down before either
   direction was used comes up down, and routing avoids it. *)
let test_link_made_on_first_use () =
  let topo = Topology.create ~sim:(Sim.create ()) () in
  let a = Topology.add_host topo and b = Topology.add_host topo in
  let s0 = Topology.add_switch topo and s1 = Topology.add_switch topo in
  List.iter
    (fun (x, y) -> Topology.connect topo x y)
    [ (a, s0); (a, s1); (s0, b); (s1, b) ];
  Topology.set_link_up topo ~a:s0 ~b false;
  let l = Topology.link topo 4 in
  Alcotest.(check bool) "same object" true (l == Topology.link topo 4);
  Alcotest.(check bool) "reverse is link 5" true
    (Topology.reverse topo l == Topology.link topo 5);
  (match Topology.cable topo ~a:s0 ~b with
  | [ ab; ba ] ->
      Alcotest.(check bool) "cable a->b" true (ab == l);
      Alcotest.(check bool) "cable b->a" true (ba == Topology.link topo 5)
  | _ -> Alcotest.fail "cable: two links");
  Alcotest.(check (pair bool bool)) "made down" (false, false)
    (Link.is_up l, Link.is_up (Topology.link topo 5));
  Alcotest.(check (pair int int)) "endpoints" (s0, b)
    (Topology.link_src topo 4, Topology.link_dst topo 4);
  let router = Router.create topo in
  for choice = 0 to 7 do
    Alcotest.(check (array int)) "a->b avoids s0" [| 2; 6 |]
      (Router.path_links router ~src:a ~dst:b ~choice)
  done;
  Topology.set_link_up topo ~a:s0 ~b true;
  Alcotest.(check bool) "restored" true (Link.is_up l)

let test_single_bottleneck () =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders:3 () in
  Alcotest.(check int) "hosts" 4 (Array.length built.Builder.hosts);
  Alcotest.(check int) "nodes" 5 (Topology.node_count built.Builder.topo);
  Alcotest.(check bool) "receiver is a host" true
    (Topology.kind built.Builder.topo rx = Topology.Host)

let test_single_rooted_tree () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  (* 1 root + 4 ToR + 12 servers = 17 nodes (the paper's topology). *)
  Alcotest.(check int) "17 nodes" 17 (Topology.node_count built.Builder.topo);
  Alcotest.(check int) "12 servers" 12 (Array.length built.Builder.hosts);
  let racks =
    Array.map (Topology.rack_of built.Builder.topo) built.Builder.hosts
  in
  Alcotest.(check int) "4 racks" 4
    (List.length (List.sort_uniq compare (Array.to_list racks)))

let test_fat_tree_counts () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  Alcotest.(check int) "k=4 has 16 hosts" 16 (Array.length built.Builder.hosts);
  (* 4 cores + 4 pods * (2 agg + 2 edge) = 20 switches. *)
  Alcotest.(check int) "nodes" 36 (Topology.node_count built.Builder.topo)

let test_fat_tree_for_servers () =
  let sim = Sim.create () in
  let built = Builder.fat_tree_for_servers ~sim ~servers:100 () in
  Alcotest.(check bool) "at least 100 hosts" true
    (Array.length built.Builder.hosts >= 100)

let test_bcube_counts () =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:4 ~k:1 () in
  (* BCube(4,1): 16 hosts, 2 levels of 4 switches. *)
  Alcotest.(check int) "16 hosts" 16 (Array.length built.Builder.hosts);
  Alcotest.(check int) "24 nodes" 24 (Topology.node_count built.Builder.topo);
  (* Every host has k+1 = 2 ports. *)
  Array.iter
    (fun h ->
      Alcotest.(check int) "dual-port host" 2
        (List.length (Topology.links_from built.Builder.topo h)))
    built.Builder.hosts

let test_bcube_connectivity () =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:2 ~k:3 () in
  Alcotest.(check int) "BCube(2,3): 16 hosts" 16 (Array.length built.Builder.hosts);
  let router = Router.create built.Builder.topo in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a <> b then ignore (Router.distance router ~src:a ~dst:b))
        built.Builder.hosts)
    built.Builder.hosts

let test_jellyfish () =
  let sim = Sim.create () in
  let rng = Rng.create 9 in
  let built = Builder.jellyfish ~sim ~rng ~switches:20 ~ports:24 ~net_ports:16 () in
  Alcotest.(check int) "8 hosts per switch" 160 (Array.length built.Builder.hosts);
  let router = Router.create built.Builder.topo in
  (* Connected: every pair of hosts is reachable. *)
  let h = built.Builder.hosts in
  ignore (Router.distance router ~src:h.(0) ~dst:h.(Array.length h - 1))

(* ------------------------------------------------------------------ *)
(* Routing *)

(* The node path of [Router.path_links]: each link's source, then the
   last link's destination. *)
let path topo router ~src ~dst ~choice =
  let links = Router.path_links router ~src ~dst ~choice in
  let hops = Array.length links in
  let link i = Topology.link topo links.(i) in
  Array.init
    (if hops = 0 then 0 else hops + 1)
    (fun i ->
      if i < hops then Link.src (link i) else Link.dst (link (hops - 1)))

let test_route_shortest () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  (* Same rack: host -> ToR -> host = 2 hops. *)
  Alcotest.(check int) "intra-rack distance" 2
    (Router.distance router ~src:h.(0) ~dst:h.(1));
  (* Cross rack: host -> ToR -> root -> ToR -> host = 4 hops. *)
  Alcotest.(check int) "cross-rack distance" 4
    (Router.distance router ~src:h.(0) ~dst:h.(11));
  let path = path built.Builder.topo router ~src:h.(0) ~dst:h.(11) ~choice:7 in
  Alcotest.(check int) "path nodes" 5 (Array.length path);
  Alcotest.(check int) "starts at src" h.(0) path.(0);
  Alcotest.(check int) "ends at dst" h.(11) path.(4)

let test_route_deterministic () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  let p1 = path built.Builder.topo router ~src:h.(0) ~dst:h.(15) ~choice:3 in
  let p2 = path built.Builder.topo router ~src:h.(0) ~dst:h.(15) ~choice:3 in
  Alcotest.(check bool) "same choice, same path" true (p1 = p2)

let test_route_ecmp_diversity () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  let paths =
    List.init 64 (fun c ->
        Array.to_list
          (path built.Builder.topo router ~src:h.(0) ~dst:h.(15) ~choice:c))
  in
  let distinct = List.length (List.sort_uniq compare paths) in
  Alcotest.(check bool)
    (Printf.sprintf "multiple ECMP paths (%d)" distinct)
    true (distinct > 1)

let test_path_links_consistent () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  let nodes = path built.Builder.topo router ~src:h.(0) ~dst:h.(12) ~choice:0 in
  let links = Router.path_links router ~src:h.(0) ~dst:h.(12) ~choice:0 in
  Alcotest.(check int) "one link per hop"
    (Router.distance router ~src:h.(0) ~dst:h.(12))
    (Array.length links);
  Alcotest.(check int) "starts at src" h.(0) nodes.(0);
  Alcotest.(check int) "ends at dst" h.(12) nodes.(Array.length nodes - 1);
  Array.iteri
    (fun i l ->
      let link = Topology.link built.Builder.topo l in
      Alcotest.(check int) "link src" nodes.(i) (Link.src link);
      Alcotest.(check int) "link dst" nodes.(i + 1) (Link.dst link))
    links

let prop_routes_are_shortest =
  QCheck.Test.make ~name:"ECMP path length equals BFS distance" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let sim = Sim.create () in
      let built = Builder.fat_tree ~sim ~k:4 () in
      let router = Router.create built.Builder.topo in
      let h = built.Builder.hosts in
      let src = h.(a mod 16) and dst = h.(b mod 16) in
      QCheck.assume (src <> dst);
      let d = Router.distance router ~src ~dst in
      let p = path built.Builder.topo router ~src ~dst ~choice:(a + b) in
      Array.length p = d + 1)

(* Reference routing: one plain BFS from [dst] over links that are up,
   whatever the destination's degree. *)
let reference_dist topo dst =
  let dist = Array.make (Topology.node_count topo) max_int in
  dist.(dst) <- 0;
  let q = Queue.create () in
  Queue.push dst q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, l) ->
        if dist.(v) = max_int && Link.is_up (Topology.link topo l) then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
      (Topology.links_from topo u)
  done;
  dist

let choice_of ~src ~dst = (src * 31) + dst

(* Every ordered pair of distinct [hosts] routes as the reference says:
   same distance, and a path of that many up links, each hop one step
   closer to [dst]. Unreachable pairs raise [Not_found]. *)
let check_against_reference ~what topo router hosts =
  Array.iter
    (fun dst ->
      let ref_d = reference_dist topo dst in
      Array.iter
        (fun src ->
          if src <> dst then begin
            let label = Printf.sprintf "%s %d->%d" what src dst in
            let choice = choice_of ~src ~dst in
            if ref_d.(src) = max_int then begin
              Alcotest.check_raises (label ^ " distance") Not_found (fun () ->
                  ignore (Router.distance router ~src ~dst));
              Alcotest.check_raises (label ^ " path") Not_found (fun () ->
                  ignore (Router.path_links router ~src ~dst ~choice))
            end
            else begin
              Alcotest.(check int) (label ^ " distance") ref_d.(src)
                (Router.distance router ~src ~dst);
              let links = Router.path_links router ~src ~dst ~choice in
              Alcotest.(check int) (label ^ " hops") ref_d.(src)
                (Array.length links);
              let node =
                Array.fold_left
                  (fun node l ->
                    let link = Topology.link topo l in
                    if Link.src link <> node || not (Link.is_up link) then
                      Alcotest.failf "%s: link %d does not leave %d up" label l
                        node;
                    let next = Link.dst link in
                    Alcotest.(check int) (label ^ " one step closer")
                      (ref_d.(node) - 1) ref_d.(next);
                    next)
                  src links
              in
              Alcotest.(check int) (label ^ " ends at dst") dst node
            end
          end)
        hosts)
    hosts

(* The distance from every node to every node, hosts and switches
   alike, is the reference BFS's. *)
let check_all_distances ~what topo router =
  let n = Topology.node_count topo in
  for dst = 0 to n - 1 do
    let ref_d = reference_dist topo dst in
    for src = 0 to n - 1 do
      let label = Printf.sprintf "%s %d->%d" what src dst in
      if ref_d.(src) = max_int then
        Alcotest.check_raises label Not_found (fun () ->
            ignore (Router.distance router ~src ~dst))
      else
        Alcotest.(check int) label ref_d.(src)
          (Router.distance router ~src ~dst)
    done
  done

let all_paths router hosts =
  Array.to_list hosts
  |> List.concat_map (fun src ->
         Array.to_list hosts
         |> List.filter (fun dst -> dst <> src)
         |> List.map (fun dst ->
                ( (src, dst),
                  Router.path_links router ~src ~dst ~choice:(choice_of ~src ~dst) )))

(* On a k=8 fat-tree the late BFS levels are wide, so they scan
   bottom-up: an unreached node looks for a peer on the frontier. With
   one aggregation switch's core cables going down, first one, then all
   of them, that scan meets down links: a core behind the first cut one
   is farther from that switch's pod, and with all of them cut the
   switch is reachable only through its pod's edge switches, so a scan
   that took a down link for an up one would place a node too close. Every
   node's distance to every node, and every host pair's route, must
   match the reference BFS each time. *)
let check_bottom_up_levels () =
  let built = Builder.fat_tree ~sim:(Sim.create ()) ~k:8 () in
  let topo = built.Builder.topo and hosts = built.Builder.hosts in
  let router = Router.create topo in
  let check what =
    check_all_distances ~what topo router;
    check_against_reference ~what topo router hosts
  in
  check "fat-tree k=8";
  let peers v = List.map fst (Topology.links_from topo v) in
  let near_host v =
    List.exists (fun p -> Topology.kind topo p = Topology.Host) (peers v)
  in
  let switch v = Topology.kind topo v = Topology.Switch in
  let aggs =
    List.filter
      (fun v ->
        switch v && (not (near_host v)) && List.exists near_host (peers v))
      (List.init (Topology.node_count topo) Fun.id)
  in
  let agg = List.nth aggs (List.length aggs / 2) in
  let cores = List.filter (fun p -> not (near_host p)) (peers agg) in
  Alcotest.(check int) "an aggregation switch has k/2 cores" 4
    (List.length cores);
  List.iteri
    (fun i core ->
      Topology.set_link_up topo ~a:agg ~b:core false;
      Router.invalidate router;
      if i = 0 || i = List.length cores - 1 then
        check (Printf.sprintf "fat-tree k=8, %d of agg %d's core cables down"
                 (i + 1) agg))
    cores

(* Shared (single-homed) and own (multi-homed) distance tables agree
   with the reference BFS, also across a failure and a repair with
   [invalidate]. The failed host loses every cable, so on BCube, whose
   servers forward, other pairs may reroute; elsewhere they must not.
   Then the bottom-up levels, as above. *)
let test_route_tables_match_reference () =
  let topologies =
    let sim = Sim.create () in
    [
      ("fat-tree k=4", Builder.fat_tree ~sim ~k:4 (), true);
      ("single-rooted tree", Builder.single_rooted_tree ~sim (), true);
      ("single bottleneck", fst (Builder.single_bottleneck ~sim ~senders:5 ()), true);
      ("bcube(3,1)", Builder.bcube ~sim ~n:3 ~k:1 (), false);
      ( "jellyfish",
        Builder.jellyfish ~sim ~rng:(Rng.create 4) ~switches:12 ~ports:8
          ~net_ports:5 (),
        true );
    ]
  in
  List.iter
    (fun (what, (built : Builder.built), hosts_relay_nothing) ->
      let topo = built.Builder.topo and hosts = built.Builder.hosts in
      let router = Router.create topo in
      check_against_reference ~what topo router hosts;
      let original = all_paths router hosts in
      let h = hosts.(Array.length hosts / 2) in
      let cables = List.map fst (Topology.links_from topo h) in
      let set_up up =
        List.iter (fun v -> Topology.set_link_up topo ~a:h ~b:v up) cables;
        Router.invalidate router
      in
      set_up false;
      Array.iter
        (fun o ->
          if o <> h then
            List.iter
              (fun (role, src, dst) ->
                Alcotest.check_raises (what ^ " cut host distance as " ^ role)
                  Not_found (fun () -> ignore (Router.distance router ~src ~dst));
                Alcotest.check_raises (what ^ " cut host path as " ^ role)
                  Not_found (fun () ->
                    ignore (Router.path_links router ~src ~dst ~choice:0)))
              [ ("source", h, o); ("destination", o, h) ])
        hosts;
      let others = Array.of_list (List.filter (( <> ) h) (Array.to_list hosts)) in
      check_against_reference ~what:(what ^ " cut") topo router others;
      if hosts_relay_nothing then
        Alcotest.(check bool) (what ^ " other pairs unchanged") true
          (all_paths router others
          = List.filter (fun ((a, b), _) -> a <> h && b <> h) original);
      set_up true;
      Alcotest.(check bool) (what ^ " repaired paths return") true
        (all_paths router hosts = original))
    topologies;
  check_bottom_up_levels ()


(* Two hosts cabled to each other are both single-homed; neither can
   borrow the other's table. *)
let test_route_two_hosts () =
  let topo = Topology.create ~sim:(Sim.create ()) () in
  let a = Topology.add_host topo and b = Topology.add_host topo in
  Topology.connect topo a b;
  let router = Router.create topo in
  Alcotest.(check int) "a->b" 1 (Router.distance router ~src:a ~dst:b);
  Alcotest.(check int) "b->a" 1 (Router.distance router ~src:b ~dst:a);
  Alcotest.(check int) "one link" 1
    (Array.length (Router.path_links router ~src:a ~dst:b ~choice:0))

(* The router's ECMP walk as it was first written, kept as an
   independent reference: per hop, filter the adjacency list to up links
   one hop closer, [List.sort compare] the (peer, link) pairs, take the
   [hash3]-th with [List.nth] and take its peer and link. Distances come
   from [reference_dist]. *)
let list_hash3 a b c =
  let h = ref 0x9E3779B9 in
  let mix x =
    h := (!h lxor (x + 0x7F4A7C15 + (!h lsl 6) + (!h lsr 2))) land max_int
  in
  mix a;
  mix b;
  mix c;
  !h

let list_walk topo ~src ~dst ~choice =
  let dist = reference_dist topo dst in
  if dist.(src) = max_int then raise Not_found;
  let rec walk node nodes links =
    if node = dst then
      (Array.of_list (List.rev (node :: nodes)), Array.of_list (List.rev links))
    else
      let d = dist.(node) in
      let hops =
        List.filter
          (fun (v, l) -> dist.(v) = d - 1 && Link.is_up (Topology.link topo l))
          (Topology.links_from topo node)
        |> List.sort compare
      in
      match hops with
      | [] -> raise Not_found
      | _ ->
          let next, link =
            List.nth hops (list_hash3 choice node dst mod List.length hops)
          in
          walk next (node :: nodes) (link :: links)
  in
  walk src [] []

(* Every ordered host pair, under three choices, takes exactly the
   reference walk's nodes and links: on five topologies, one with
   parallel cables, then again after a cable between two multi-homed
   nodes fails and the router is invalidated. *)
let test_route_matches_list_walk () =
  let sim = Sim.create () in
  (* A second cable beside an edge-host one and an agg-core one: ties
     between parallel links break by link id. *)
  let doubled =
    let built = Builder.fat_tree ~sim ~k:4 () in
    let topo = built.Builder.topo and h = built.Builder.hosts.(0) in
    let peers v = List.map fst (Topology.links_from topo v) in
    let switch v = Topology.kind topo v = Topology.Switch in
    let near_host v = not (List.for_all switch (peers v)) in
    let edge = List.hd (peers h) in
    let agg = List.find switch (peers edge) in
    let core = List.find (fun v -> not (near_host v)) (peers agg) in
    Topology.connect topo edge h;
    Topology.connect topo agg core;
    built
  in
  let topologies =
    [
      ("fat-tree k=4", Builder.fat_tree ~sim ~k:4 ());
      ("fat-tree k=4, two cables doubled", doubled);
      ("single-rooted tree", Builder.single_rooted_tree ~sim ());
      ("bcube(2,3)", Builder.bcube ~sim ~n:2 ~k:3 ());
      ( "jellyfish",
        Builder.jellyfish ~sim ~rng:(Rng.create 4) ~switches:12 ~ports:8
          ~net_ports:5 () );
    ]
  in
  let compare_all ~what topo router hosts =
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if src <> dst then
              List.iter
                (fun choice ->
                  let label = Printf.sprintf "%s %d->%d/%d" what src dst choice in
                  match list_walk topo ~src ~dst ~choice with
                  | exception Not_found ->
                      Alcotest.check_raises (label ^ " path") Not_found
                        (fun () -> ignore (path topo router ~src ~dst ~choice));
                      Alcotest.check_raises (label ^ " links") Not_found
                        (fun () ->
                          ignore (Router.path_links router ~src ~dst ~choice))
                  | nodes, links ->
                      Alcotest.(check (array int)) (label ^ " path") nodes
                        (path topo router ~src ~dst ~choice);
                      Alcotest.(check (array int)) (label ^ " links") links
                        (Router.path_links router ~src ~dst ~choice))
                [ 0; 7; choice_of ~src ~dst ])
          hosts)
      hosts
  in
  List.iter
    (fun (what, (built : Builder.built)) ->
      let topo = built.Builder.topo and hosts = built.Builder.hosts in
      let router = Router.create topo in
      compare_all ~what topo router hosts;
      let multi_homed v = List.length (Topology.links_from topo v) > 1 in
      let inner =
        List.filter
          (fun (a, b) -> multi_homed a && multi_homed b)
          (Topology.cables topo)
      in
      let a, b = List.nth inner (List.length inner / 2) in
      Topology.set_link_up topo ~a ~b false;
      Router.invalidate router;
      compare_all ~what:(Printf.sprintf "%s without %d<->%d" what a b) topo
        router hosts)
    topologies

(* Two parallel cables between a switch and a host, the newer one down:
   every route takes the older, up cable, in both directions. A lookup
   by node pair ([Topology.cable]) would name the newest link to the
   peer, which is down. *)
let test_route_parallel_cable_down () =
  let topo = Topology.create ~sim:(Sim.create ()) () in
  let a = Topology.add_host topo in
  let s = Topology.add_switch topo in
  let b = Topology.add_host topo in
  Topology.connect topo a s;
  Topology.connect topo s b;
  Topology.connect topo s b;
  (* Links 2/3 are the older s<->b pair, 4/5 the newer. *)
  Topology.set_link_up topo ~a:s ~b false;
  Alcotest.(check bool) "newer pair down" false
    (Link.is_up (Topology.link topo 4) || Link.is_up (Topology.link topo 5));
  Alcotest.(check (list bool)) "flags: older pair up, newer down"
    [ true; true; false; false ]
    (List.map (Topology.link_up topo) [ 2; 3; 4; 5 ]);
  let router = Router.create topo in
  for choice = 0 to 15 do
    Alcotest.(check (array int)) "a->b over the up cable" [| 0; 2 |]
      (Router.path_links router ~src:a ~dst:b ~choice);
    Alcotest.(check (array int)) "b->a over the up cable" [| 3; 1 |]
      (Router.path_links router ~src:b ~dst:a ~choice)
  done

(* Link status is read live, not snapshotted at [create]: with every
   host pair's table cached on a k=4 fat-tree, one agg-core cable goes
   down and the router is not invalidated. No path may then name
   either direction of it; a walk whose only closer hop was that cable
   may end in [Not_found]. Once the cable is back up, every path is the
   original again. *)
let test_route_reads_status_live () =
  let built = Builder.fat_tree ~sim:(Sim.create ()) ~k:4 () in
  let topo = built.Builder.topo and hosts = built.Builder.hosts in
  let router = Router.create topo in
  let original = all_paths router hosts in
  let near_host v =
    List.exists
      (fun (p, _) -> Topology.kind topo p = Topology.Host)
      (Topology.links_from topo v)
  in
  let switch v = Topology.kind topo v = Topology.Switch in
  let a, b =
    List.find
      (fun (a, b) ->
        switch a && switch b && not (near_host a || near_host b))
      (Topology.cables topo)
  in
  let cut = List.map Link.id (Topology.cable topo ~a ~b) in
  Topology.set_link_up topo ~a ~b false;
  let routed = ref 0 in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then
            match
              Router.path_links router ~src ~dst ~choice:(choice_of ~src ~dst)
            with
            | exception Not_found -> ()
            | links ->
                incr routed;
                Array.iter
                  (fun l ->
                    if List.mem l cut then
                      Alcotest.failf "%d->%d takes down link %d (%d<->%d)" src
                        dst l a b)
                  links)
        hosts)
    hosts;
  Alcotest.(check bool) "most pairs still route" true
    (!routed > List.length original / 2);
  Topology.set_link_up topo ~a ~b true;
  Alcotest.(check bool) "restored cable, original paths" true
    (all_paths router hosts = original)

(* The BFS leaves out nodes of degree 1, whose distances follow from
   their neighbour's. Distances from every node to every node, hosts
   and switches alike, match the reference BFS on a topology with
   dangling switches, a relay switch of degree 2 and a pair of nodes
   cabled only to each other (a leaf destination with a leaf
   neighbour), and again after the cable of a dangling switch fails,
   which leaves that switch a leaf with no up link. Restoring a cable
   that is already up must not hide that failure from the BFS. *)
let test_route_leaf_nodes_match_reference () =
  let topo = Topology.create ~sim:(Sim.create ()) () in
  let s0 = Topology.add_switch topo and s1 = Topology.add_switch topo in
  let h0 = Topology.add_host topo and h1 = Topology.add_host topo in
  let s2 = Topology.add_switch topo and h2 = Topology.add_host topo in
  let dangling = Topology.add_switch topo and s3 = Topology.add_switch topo in
  let relay = Topology.add_switch topo in
  let lone_h = Topology.add_host topo and lone_s = Topology.add_switch topo in
  List.iter
    (fun (a, b) -> Topology.connect topo a b)
    [
      (s0, h0); (s0, h1); (s0, s1); (s1, s2); (s1, dangling); (s2, h2);
      (s2, relay); (relay, s3); (lone_h, lone_s);
    ];
  let router = Router.create topo in
  let check what = check_all_distances ~what topo router in
  check "leaf cable up";
  Topology.set_link_up topo ~a:s1 ~b:dangling false;
  Topology.set_link_up topo ~a:s0 ~b:s1 true;
  Alcotest.(check int) "two directed links down" 2 (Topology.links_down topo);
  Router.invalidate router;
  check "leaf cable down"

(* [Topology.reverse] pairs every link of every builder's topology with
   the other direction of its cable: an involution that swaps the
   endpoints and keeps the rate, the delays and the buffer. *)
let test_reverse_pairs_cable_directions () =
  let sim = Sim.create () in
  List.iter
    (fun (what, (built : Builder.built)) ->
      let topo = built.Builder.topo in
      Topology.iter_links
        (fun l ->
          let r = Topology.reverse topo l in
          let label = Printf.sprintf "%s link %d" what (Link.id l) in
          Alcotest.(check bool) (label ^ " involution") true
            (Topology.reverse topo r == l);
          Alcotest.(check (pair int int)) (label ^ " endpoints swapped")
            (Link.dst l, Link.src l) (Link.src r, Link.dst r);
          Alcotest.(check (float 0.)) (label ^ " rate") (Link.rate l)
            (Link.rate r);
          Alcotest.(check (float 0.)) (label ^ " propagation")
            (Link.prop_delay l) (Link.prop_delay r);
          Alcotest.(check (float 0.)) (label ^ " processing")
            (Link.proc_delay l) (Link.proc_delay r);
          Alcotest.(check int) (label ^ " buffer") (Link.buffer_bytes l)
            (Link.buffer_bytes r))
        topo)
    [
      ("fat-tree k=4", Builder.fat_tree ~sim ~k:4 ());
      ("single-rooted tree", Builder.single_rooted_tree ~sim ());
      ("single bottleneck", fst (Builder.single_bottleneck ~sim ~senders:5 ()));
      ("bcube(2,3)", Builder.bcube ~sim ~n:2 ~k:3 ());
      ( "jellyfish",
        Builder.jellyfish ~sim ~rng:(Rng.create 4) ~switches:12 ~ports:8
          ~net_ports:5 () );
    ]

(* With its tables cached, [path_links] allocates its result and
   nothing per hop: on a k=8 fat-tree (paths of 2, 4 and 6 links), the
   minor words of a call exceed its result array (length + header) by
   less than 2 on average. *)
let test_path_links_alloc () =
  let built = Builder.fat_tree ~sim:(Sim.create ()) ~k:8 () in
  let router = Router.create built.Builder.topo in
  let hosts = built.Builder.hosts in
  let n = Array.length hosts in
  let calls = n * (n - 1) in
  let srcs = Array.make calls 0 and dsts = Array.make calls 0 in
  let i = ref 0 in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then begin
            srcs.(!i) <- src;
            dsts.(!i) <- dst;
            incr i
          end)
        hosts)
    hosts;
  let pass () =
    let words = ref 0 in
    for i = 0 to calls - 1 do
      let links =
        Router.path_links router ~src:srcs.(i) ~dst:dsts.(i) ~choice:i
      in
      words := !words + Array.length links + 1
    done;
    !words
  in
  ignore (pass ());
  let w0 = Gc.minor_words () in
  let result_words = pass () in
  let excess =
    (Gc.minor_words () -. w0 -. float_of_int result_words)
    /. float_of_int calls
  in
  Alcotest.(check bool)
    (Printf.sprintf "minor words beyond the result per call < 2 (got %.3f)"
       excess)
    true (excess < 2.)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "net.link",
      [
        Alcotest.test_case "delivery latency" `Quick test_link_delivery_time;
        Alcotest.test_case "FIFO serialization" `Quick test_link_serialization_fifo;
        Alcotest.test_case "FIFO across growth and wraparound" `Quick
          test_link_fifo_growth_wraparound;
        Alcotest.test_case "send and deliver allocate only the tx delay"
          `Quick test_link_alloc_free;
        Alcotest.test_case "delivered packets are released" `Quick
          test_link_releases_delivered;
        Alcotest.test_case "tail drop" `Quick test_link_tail_drop;
        Alcotest.test_case "queue accounting" `Quick test_link_queue_accounting;
        Alcotest.test_case "bernoulli loss" `Quick test_link_loss;
        Alcotest.test_case "down/up semantics" `Quick test_link_down_up;
        Alcotest.test_case "gilbert-elliott loss" `Quick test_link_gilbert_loss;
        Alcotest.test_case "transmit tap" `Quick test_link_tap;
      ] );
    ( "net.topologies",
      [
        Alcotest.test_case "missing handler names node" `Quick
          test_no_handler_carries_node_id;
        Alcotest.test_case "single bottleneck" `Quick test_single_bottleneck;
        Alcotest.test_case "single-rooted tree (Fig 2a)" `Quick
          test_single_rooted_tree;
        Alcotest.test_case "fat-tree counts" `Quick test_fat_tree_counts;
        Alcotest.test_case "fat-tree sizing" `Quick test_fat_tree_for_servers;
        Alcotest.test_case "bcube counts" `Quick test_bcube_counts;
        Alcotest.test_case "bcube(2,3) connectivity" `Quick test_bcube_connectivity;
        Alcotest.test_case "jellyfish" `Quick test_jellyfish;
        Alcotest.test_case "reverse pairs a cable's directions" `Quick
          test_reverse_pairs_cable_directions;
        Alcotest.test_case "out-of-range ids rejected" `Quick
          test_out_of_range_ids;
        Alcotest.test_case "link table allocation" `Quick test_link_table_alloc;
        Alcotest.test_case "link made on first use" `Quick
          test_link_made_on_first_use;
      ] );
    ( "net.routing",
      [
        Alcotest.test_case "shortest paths" `Quick test_route_shortest;
        Alcotest.test_case "deterministic choice" `Quick test_route_deterministic;
        Alcotest.test_case "ecmp diversity" `Quick test_route_ecmp_diversity;
        Alcotest.test_case "path/link consistency" `Quick test_path_links_consistent;
        Alcotest.test_case "tables match reference BFS" `Quick
          test_route_tables_match_reference;
        Alcotest.test_case "two cabled hosts" `Quick test_route_two_hosts;
        Alcotest.test_case "ECMP choice matches the list walk" `Quick
          test_route_matches_list_walk;
        Alcotest.test_case "link status is read live" `Quick
          test_route_reads_status_live;
        Alcotest.test_case "leaf nodes match reference BFS" `Quick
          test_route_leaf_nodes_match_reference;
        Alcotest.test_case "parallel cable, newer one down" `Quick
          test_route_parallel_cable_down;
        Alcotest.test_case "warm path_links allocates only its result"
          `Quick test_path_links_alloc;
      ]
      @ qsuite [ prop_routes_are_shortest ] );
  ]
