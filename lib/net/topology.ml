type node_kind = Host | Switch

(* Every link has the paper's §5.1 settings. *)
let rate = Pdq_engine.Units.gbps 1.
let prop_delay = Pdq_engine.Units.us 0.1
let proc_delay = Pdq_engine.Units.us 25.
let buffer_bytes = Pdq_engine.Units.mbyte 4.

type node = {
  kind : node_kind;
  rack : int;
  mutable handler : Packet.t -> unit;
}

(* Links live in flat arrays indexed by link id. [connect] pushes a
   cable's two directions one after the other, so link [2k] and link
   [2k + 1] are each other's reverse, and a link's source is its
   reverse's [dst]. A link's [Link.t], the packet-level queue and
   transmitter, is made the first time [link] asks for it, so a
   flow-level run, which reads only rates and the graph, makes none.
   Each node's outgoing links form a chain through [next_out], newest
   first, from [first_out]. *)
type t = {
  sim : Pdq_engine.Sim.t;
  mutable nodes : node array;
  mutable node_count : int;
  mutable first_out : int array; (* by node: newest outgoing link, or -1 *)
  mutable dst : int array; (* by link id *)
  mutable next_out : int array; (* the same source's next older link, or -1 *)
  mutable links : Link.t option array; (* [None] until [link] makes it *)
  mutable up : Bytes.t; (* by link id: '\001' while up; see [set_link_up] *)
  mutable link_count : int;
  mutable links_down : int; (* flags of [up] that are '\000' *)
}

let create ~sim () =
  {
    sim;
    nodes = [||];
    node_count = 0;
    first_out = [||];
    dst = [||];
    next_out = [||];
    links = [||];
    up = Bytes.empty;
    link_count = 0;
    links_down = 0;
  }

let sim t = t.sim

(* [a] grown to [cap] slots, the new ones holding [fill]. *)
let grow a ~count ~cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 count;
  b

let push_node t node =
  let id = t.node_count in
  if id = Array.length t.nodes then begin
    let cap = max 16 (2 * id) in
    t.nodes <- grow t.nodes ~count:id ~cap node;
    t.first_out <- grow t.first_out ~count:id ~cap (-1)
  end;
  t.nodes.(id) <- node;
  t.first_out.(id) <- -1;
  t.node_count <- id + 1;
  id

exception No_handler of int

let unset_handler id _pkt = raise (No_handler id)

let add_host ?(rack = 0) t =
  let id = t.node_count in
  push_node t { kind = Host; rack; handler = unset_handler id }

let add_switch t =
  let id = t.node_count in
  push_node t { kind = Switch; rack = -1; handler = unset_handler id }

let push_link t src dst =
  let id = t.link_count in
  if id = Array.length t.dst then begin
    let count = id and cap = max 16 (2 * id) in
    t.dst <- grow t.dst ~count ~cap 0;
    t.next_out <- grow t.next_out ~count ~cap (-1);
    t.links <- grow t.links ~count ~cap None;
    let up = Bytes.make cap '\000' in
    Bytes.blit t.up 0 up 0 id;
    t.up <- up
  end;
  t.dst.(id) <- dst;
  t.next_out.(id) <- t.first_out.(src);
  t.first_out.(src) <- id;
  Bytes.set t.up id '\001';
  t.link_count <- id + 1

let check_node t fn i =
  if i < 0 || i >= t.node_count then
    invalid_arg (Printf.sprintf "Topology.%s: no node %d" fn i)

let check_link t fn i =
  if i < 0 || i >= t.link_count then
    invalid_arg (Printf.sprintf "Topology.%s: no link %d" fn i)

let connect t a b =
  check_node t "connect" a;
  check_node t "connect" b;
  push_link t a b;
  push_link t b a

let node_count t = t.node_count

let kind t i =
  check_node t "kind" i;
  t.nodes.(i).kind

let rack_of t i =
  check_node t "rack_of" i;
  t.nodes.(i).rack

let set_handler t i f =
  check_node t "set_handler" i;
  t.nodes.(i).handler <- f

let link_count t = t.link_count

let link_src t i =
  check_link t "link_src" i;
  t.dst.(i lxor 1)

let link_dst t i =
  check_link t "link_dst" i;
  t.dst.(i)

let link_rate t i =
  check_link t "link_rate" i;
  rate

let link_up t i =
  check_link t "link_up" i;
  Bytes.get t.up i = '\001'

let make_link t i =
  let dst = t.dst.(i) in
  let l =
    Link.create ~sim:t.sim ~id:i ~src:t.dst.(i lxor 1) ~dst ~rate ~prop_delay
      ~proc_delay ~buffer_bytes ()
  in
  Link.set_receiver l (fun pkt -> t.nodes.(dst).handler pkt);
  if Bytes.get t.up i = '\000' then Link.set_up l false;
  t.links.(i) <- Some l;
  l

let link t i =
  check_link t "link" i;
  match t.links.(i) with Some l -> l | None -> make_link t i

(* Newest first, as the chain runs. *)
let links_from t i =
  check_node t "links_from" i;
  let rec from id =
    if id < 0 then [] else (t.dst.(id), id) :: from t.next_out.(id)
  in
  from t.first_out.(i)

let reverse t l = link t (Link.id l lxor 1)

let cables t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  for id = 0 to t.link_count - 1 do
    let src = t.dst.(id lxor 1) in
    let a = min src t.dst.(id) and b = max src t.dst.(id) in
    if not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      acc := (a, b) :: !acc
    end
  done;
  List.rev !acc

(* The id of the newest link [a -> b]. *)
let cable_id t ~a ~b =
  let rec find id =
    if id < 0 || t.dst.(id) = b then id else find t.next_out.(id)
  in
  let id = if a < 0 || a >= t.node_count then -1 else find t.first_out.(a) in
  if id < 0 then
    invalid_arg (Printf.sprintf "Topology.cable: no cable %d<->%d" a b);
  id

let cable t ~a ~b =
  let id = cable_id t ~a ~b in
  [ link t id; link t (id lxor 1) ]

let links_down t = t.links_down

(* Duplex administrative status: fail or restore both directions of
   the cable between two adjacent nodes, in the flag the router reads
   and in each direction's link, if made (which drops what it is
   offered while down); a link made later starts from the flag. *)
let set_link_up t ~a ~b up =
  let id = cable_id t ~a ~b in
  List.iter
    (fun id ->
      Option.iter (fun l -> Link.set_up l up) t.links.(id);
      if link_up t id <> up then begin
        Bytes.set t.up id (if up then '\001' else '\000');
        t.links_down <- (if up then t.links_down - 1 else t.links_down + 1)
      end)
    [ id; id lxor 1 ]

let iter_links f t =
  for i = 0 to t.link_count - 1 do
    f (link t i)
  done
