(* A node of degree 1 (a leaf, e.g. a fat-tree host) is never on a
   shortest path between two other nodes, so the BFS runs over the
   other nodes only, the core, indexed by [rank], and a table holds one
   word per core node. A leaf's distance is its neighbour's plus one,
   worked out when asked for. *)

(* Hop counts to one destination [dst], by rank: [hops.(r) + extra],
   [max_int] when unreachable. A destination with its own BFS has
   [extra] = 0. A leaf destination whose cable is up is reached only
   through its one neighbour, so it shares that neighbour's [hops] with
   [extra] = 1 instead of running its own BFS. *)
type table = { dst : int; hops : int array; extra : int }

(* The adjacency, snapshotted at [create] in compressed sparse rows:
   node [u]'s entries are [start.(u) .. start.(u + 1) - 1], sorted by
   (peer, link id), with [peer.(e)] the neighbour and [link.(e)] the
   directed link's id. The core rows repeat, for the core node of rank
   [r], its entries to core peers in the same order:
   [cstart.(r) .. cstart.(r + 1) - 1], with [cpeer] the peer's rank and
   [centry] the entry in the full rows. Link status is not snapshotted:
   it is read live from [topo]'s flags. The graph is symmetric (duplex
   links), so a forward BFS from [dst] gives every node's distance to
   it. *)
type t = {
  topo : Topology.t;
  start : int array;
  peer : int array;
  link : int array;
  rank : int array; (* by node: its rank in the core, -1 for a leaf *)
  cstart : int array;
  cpeer : int array;
  centry : int array;
  queue : int array; (* BFS scratch, one slot per core node *)
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
  let rank = Array.make n (-1) and cores = ref 0 in
  for u = 0 to n - 1 do
    if start.(u + 1) - start.(u) <> 1 then begin
      rank.(u) <- !cores;
      incr cores
    end
  done;
  let cstart = Array.make (!cores + 1) 0 and centry = Array.make start.(n) 0 in
  let m = ref 0 in
  for u = 0 to n - 1 do
    if rank.(u) >= 0 then begin
      for e = start.(u) to start.(u + 1) - 1 do
        if rank.(peer.(e)) >= 0 then begin
          centry.(!m) <- e;
          incr m
        end
      done;
      cstart.(rank.(u) + 1) <- !m
    end
  done;
  let centry = Array.sub centry 0 !m in
  {
    topo;
    start;
    peer;
    link;
    rank;
    cstart;
    cpeer = Array.map (fun e -> rank.(peer.(e))) centry;
    centry;
    queue = Array.make !cores 0;
    closer = Array.make !widest 0;
    tables = Array.make n absent;
  }

let invalidate t = Array.fill t.tables 0 (Array.length t.tables) absent

(* A link only carries traffic while administratively up; distance
   tables and next hops ignore down links, so recomputed routes steer
   around failures (call {!invalidate} after a status change). *)
let[@inline] usable t e = Topology.link_up t.topo t.link.(e)

(* BFS over the core rows from the core node of rank [root]. While no
   link is down, the flags need no read per link. *)
let bfs_from t root =
  let { cstart; cpeer; centry; queue; _ } = t in
  let all_up = Topology.links_down t.topo = 0 in
  let dist = Array.make (Array.length queue) max_int in
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for e = cstart.(u) to cstart.(u + 1) - 1 do
      let v = cpeer.(e) in
      if dist.(v) = max_int && (all_up || usable t centry.(e)) then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let[@inline] hop tbl r =
  let d = tbl.hops.(r) in
  if d = max_int then d else d + tbl.extra

(* A leaf other than [dst] is one hop beyond its neighbour, over its
   one cable while that is up. *)
let dist t tbl node =
  if node = tbl.dst then 0
  else
    let r = t.rank.(node) in
    if r >= 0 then hop tbl r
    else
      let e = t.start.(node) in
      let p = t.peer.(e) in
      if not (usable t e) then max_int
      else if p = tbl.dst then 1
      else if t.rank.(p) < 0 then max_int
      else
        let d = hop tbl t.rank.(p) in
        if d = max_int then d else d + 1

let rec dist_to t dst =
  let tbl = t.tables.(dst) in
  if tbl != absent then tbl
  else begin
    let r = t.rank.(dst) and e = t.start.(dst) in
    let tbl =
      if r >= 0 then { dst; hops = bfs_from t r; extra = 0 }
      else if usable t e && t.rank.(t.peer.(e)) >= 0 then
        { dst; hops = (dist_to t t.peer.(e)).hops; extra = 1 }
      else { dst; hops = Array.make (Array.length t.queue) max_int; extra = 0 }
    in
    t.tables.(dst) <- tbl;
    tbl
  end

let distance t ~src ~dst =
  let d = dist t (dist_to t dst) src in
  if d = max_int then raise Not_found else d

(* Deterministic integer mixing for ECMP choice. *)
let[@inline] mix h x =
  (h lxor (x + 0x7F4A7C15 + (h lsl 6) + (h lsr 2))) land max_int

let hash3 a b c = mix (mix (mix 0x9E3779B9 a) b) c

(* Adds entry [e] to the [count] candidates if its link is up. *)
let[@inline] keep t count e =
  if usable t e then begin
    t.closer.(count) <- e;
    count + 1
  end
  else count

(* The ECMP next hop of [node], [d] hops from [dst]: among its entries
   whose link is up and whose peer is one hop closer, the [hash3 choice
   node dst mod count]-th in (peer, link) order. A leaf's one entry is
   the only candidate; one hop out, the closer peer is [dst] itself;
   further out it is a core node, so only the core row is scanned.
   Raises [Not_found] when there is none (a link went down since the
   table was computed). *)

let next_entry t tbl node d ~dst ~choice =
  let count = ref 0 in
  let r = t.rank.(node) in
  if r < 0 then count := keep t !count t.start.(node)
  else if d = 1 then
    for e = t.start.(node) to t.start.(node + 1) - 1 do
      if t.peer.(e) = dst then count := keep t !count e
    done
  else
    for e = t.cstart.(r) to t.cstart.(r + 1) - 1 do
      if hop tbl t.cpeer.(e) = d - 1 then count := keep t !count t.centry.(e)
    done;
  if !count = 0 then raise Not_found;
  t.closer.(hash3 choice node dst mod !count)

(* Every hop lowers the distance by one, so a route from [src] has
   exactly [dist src] links. *)
let path_links t ~src ~dst ~choice =
  let tbl = dist_to t dst in
  let d = dist t tbl src in
  if d = max_int then raise Not_found;
  let out = Array.make d 0 in
  let node = ref src in
  for i = 0 to d - 1 do
    let e = next_entry t tbl !node (d - i) ~dst ~choice in
    out.(i) <- t.link.(e);
    node := t.peer.(e)
  done;
  out
