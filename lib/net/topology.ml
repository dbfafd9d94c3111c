type node_kind = Host | Switch

type link_params = {
  rate : float;
  prop_delay : float;
  proc_delay : float;
  buffer_bytes : int;
}

let default_params =
  {
    rate = Pdq_engine.Units.gbps 1.;
    prop_delay = Pdq_engine.Units.us 0.1;
    proc_delay = Pdq_engine.Units.us 25.;
    buffer_bytes = Pdq_engine.Units.mbyte 4.;
  }

type node = {
  kind : node_kind;
  rack : int;
  mutable handler : Packet.t -> unit;
}

type t = {
  sim : Pdq_engine.Sim.t;
  mutable nodes : node array;
  mutable node_count : int;
  mutable links : Link.t array;
  mutable up : Bytes.t; (* by link id: '\001' while up; see [set_link_up] *)
  mutable link_count : int;
  mutable links_down : int; (* flags of [up] that are '\000' *)
  mutable adj : (int * int) list array; (* node -> (peer, link id) *)
}

let create ~sim () =
  {
    sim;
    nodes = [||];
    node_count = 0;
    links = [||];
    up = Bytes.empty;
    link_count = 0;
    links_down = 0;
    adj = [||];
  }

let sim t = t.sim

let push_node t node =
  if t.node_count = Array.length t.nodes then begin
    let cap = max 16 (2 * t.node_count) in
    let nodes = Array.make cap node in
    Array.blit t.nodes 0 nodes 0 t.node_count;
    t.nodes <- nodes;
    let adj = Array.make cap [] in
    Array.blit t.adj 0 adj 0 t.node_count;
    t.adj <- adj
  end;
  t.nodes.(t.node_count) <- node;
  t.adj.(t.node_count) <- [];
  t.node_count <- t.node_count + 1;
  t.node_count - 1

exception No_handler of int

let unset_handler id _pkt = raise (No_handler id)

let add_host ?(rack = 0) t =
  let id = t.node_count in
  push_node t { kind = Host; rack; handler = unset_handler id }

let add_switch t =
  let id = t.node_count in
  push_node t { kind = Switch; rack = -1; handler = unset_handler id }

let push_link t link =
  if t.link_count = Array.length t.links then begin
    let cap = max 16 (2 * t.link_count) in
    let links = Array.make cap link in
    Array.blit t.links 0 links 0 t.link_count;
    t.links <- links;
    let up = Bytes.make cap '\000' in
    Bytes.blit t.up 0 up 0 t.link_count;
    t.up <- up
  end;
  t.links.(t.link_count) <- link;
  Bytes.set t.up t.link_count '\001';
  t.link_count <- t.link_count + 1;
  t.link_count - 1

let connect ?(params = default_params) t a b =
  let directed src dst =
    let link =
      Link.create ~sim:t.sim ~id:t.link_count ~src ~dst ~rate:params.rate
        ~prop_delay:params.prop_delay ~proc_delay:params.proc_delay
        ~buffer_bytes:params.buffer_bytes ()
    in
    Link.set_receiver link (fun pkt -> t.nodes.(dst).handler pkt);
    let id = push_link t link in
    t.adj.(src) <- (dst, id) :: t.adj.(src)
  in
  directed a b;
  directed b a

let node_count t = t.node_count
let kind t i = t.nodes.(i).kind

let hosts t =
  let acc = ref [] in
  for i = t.node_count - 1 downto 0 do
    if t.nodes.(i).kind = Host then acc := i :: !acc
  done;
  Array.of_list !acc

let rack_of t i = t.nodes.(i).rack
let set_handler t i f = t.nodes.(i).handler <- f
let link_count t = t.link_count
let link t i = t.links.(i)
let links_from t i = t.adj.(i)

(* [connect] pushes a cable's two directions one after the other, so
   link [2k] and link [2k + 1] are each other's reverse. *)
let reverse t l = t.links.(Link.id l lxor 1)

let cables t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  for id = 0 to t.link_count - 1 do
    let l = t.links.(id) in
    let a = min (Link.src l) (Link.dst l)
    and b = max (Link.src l) (Link.dst l) in
    if not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      acc := (a, b) :: !acc
    end
  done;
  List.rev !acc

let cable t ~a ~b =
  let ab =
    if a < 0 || a >= t.node_count then None else List.assoc_opt b t.adj.(a)
  in
  match ab with
  | Some id -> [ t.links.(id); reverse t t.links.(id) ]
  | None -> invalid_arg (Printf.sprintf "Topology.cable: no cable %d<->%d" a b)

let link_up t id = Bytes.get t.up id = '\001'
let links_down t = t.links_down

(* Duplex administrative status: fail or restore both directions of
   the cable between two adjacent nodes, in the link (which drops what
   it is offered while down) and in the flag the router reads. *)
let set_link_up t ~a ~b up =
  List.iter
    (fun l ->
      Link.set_up l up;
      let id = Link.id l in
      if link_up t id <> up then begin
        Bytes.set t.up id (if up then '\001' else '\000');
        t.links_down <- (if up then t.links_down - 1 else t.links_down + 1)
      end)
    (cable t ~a ~b)

let iter_links f t =
  for i = 0 to t.link_count - 1 do
    f t.links.(i)
  done
