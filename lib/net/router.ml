(* Hop counts to one destination [dst]: 0 at [dst], [hops.(x) + extra]
   elsewhere, [max_int] when unreachable. A destination with its own BFS
   has [extra] = 0. A single-homed destination whose cable is up is
   reached only through its one neighbour, so it shares that
   neighbour's [hops] with [extra] = 1 instead of running its own BFS. *)
type table = { dst : int; hops : int array; extra : int }

(* The adjacency, snapshotted at [create] in compressed sparse rows:
   node [u]'s entries are [start.(u) .. start.(u + 1) - 1], sorted by
   (peer, link id), with [peer.(e)] the neighbour, [link.(e)] the
   directed link's id and [wire.(e)] the link itself, read for its live
   status. The graph is symmetric (duplex links), so a forward BFS from
   [dst] gives every node's distance to it. *)
type t = {
  start : int array;
  peer : int array;
  link : int array;
  wire : Link.t array;
  queue : int array; (* BFS scratch, one slot per node *)
  closer : int array; (* [next_entry] scratch, one slot per entry of a row *)
  tables : table array; (* by destination; [absent] until first use *)
}

let absent = { dst = -1; hops = [||]; extra = 0 }

let by_peer_then_link (p, l) (q, m) =
  match Int.compare p q with 0 -> Int.compare l m | c -> c

let create topo =
  let n = Topology.node_count topo in
  let rows =
    Array.init n (fun u -> List.sort by_peer_then_link (Topology.links_from topo u))
  in
  let start = Array.make (n + 1) 0 and widest = ref 0 in
  for u = 0 to n - 1 do
    let d = List.length rows.(u) in
    start.(u + 1) <- start.(u) + d;
    widest := max !widest d
  done;
  let peer = Array.make start.(n) 0 and link = Array.make start.(n) 0 in
  Array.iteri
    (fun u row ->
      List.iteri
        (fun i (v, l) ->
          peer.(start.(u) + i) <- v;
          link.(start.(u) + i) <- l)
        row)
    rows;
  {
    start;
    peer;
    link;
    wire = Array.map (Topology.link topo) link;
    queue = Array.make n 0;
    closer = Array.make !widest 0;
    tables = Array.make n absent;
  }

let invalidate t = Array.fill t.tables 0 (Array.length t.tables) absent

(* A link only carries traffic while administratively up; distance
   tables and next hops ignore down links, so recomputed routes steer
   around failures (call {!invalidate} after a status change). *)
let[@inline] usable t e = Link.is_up t.wire.(e)

let bfs_from t root =
  let { start; peer; queue; _ } = t in
  let dist = Array.make (Array.length queue) max_int in
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for e = start.(u) to start.(u + 1) - 1 do
      let v = peer.(e) in
      if dist.(v) = max_int && usable t e then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let[@inline] dist tbl node =
  if node = tbl.dst then 0
  else
    let d = tbl.hops.(node) in
    if d = max_int then d else d + tbl.extra

let degree t u = t.start.(u + 1) - t.start.(u)

let rec dist_to t dst =
  let tbl = t.tables.(dst) in
  if tbl != absent then tbl
  else begin
    let e = t.start.(dst) in
    let tbl =
      if degree t dst = 1 && usable t e && degree t t.peer.(e) > 1 then
        { dst; hops = (dist_to t t.peer.(e)).hops; extra = 1 }
      else { dst; hops = bfs_from t dst; extra = 0 }
    in
    t.tables.(dst) <- tbl;
    tbl
  end

let distance t ~src ~dst =
  let d = dist (dist_to t dst) src in
  if d = max_int then raise Not_found else d

(* Deterministic integer mixing for ECMP choice. *)
let[@inline] mix h x =
  (h lxor (x + 0x7F4A7C15 + (h lsl 6) + (h lsr 2))) land max_int

let hash3 a b c = mix (mix (mix 0x9E3779B9 a) b) c

(* The ECMP next hop of [node]: among its entries whose link is up and
   whose peer is one hop closer to [dst], the [hash3 choice node dst mod
   count]-th in (peer, link) order. Raises [Not_found] when there is
   none (a link went down since the table was computed). *)
let next_entry t tbl node ~dst ~choice =
  let d = dist tbl node - 1 in
  let count = ref 0 in
  for e = t.start.(node) to t.start.(node + 1) - 1 do
    if dist tbl t.peer.(e) = d && usable t e then begin
      t.closer.(!count) <- e;
      incr count
    end
  done;
  if !count = 0 then raise Not_found;
  t.closer.(hash3 choice node dst mod !count)

(* Every hop lowers the distance by one, so a route from [src] has
   exactly [dist src] links. *)
let path_links t ~src ~dst ~choice =
  let tbl = dist_to t dst in
  let d = dist tbl src in
  if d = max_int then raise Not_found;
  let out = Array.make d 0 in
  let node = ref src in
  for i = 0 to d - 1 do
    let e = next_entry t tbl !node ~dst ~choice in
    out.(i) <- t.link.(e);
    node := t.peer.(e)
  done;
  out
