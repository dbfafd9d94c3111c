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

(* The rows come from the link table by two counting passes: the link
   ids ordered by destination (stable, so ascending within one), then
   each link placed in its source's row in that order, which sorts
   every row by (peer, link id) in O(V + E). *)
let create topo =
  let n = Topology.node_count topo and links = Topology.link_count topo in
  let src = Array.init links (Topology.link_src topo)
  and dst = Array.init links (Topology.link_dst topo) in
  let next = Array.make (n + 1) 0 in
  Array.iter (fun v -> next.(v + 1) <- next.(v + 1) + 1) dst;
  for v = 1 to n do
    next.(v) <- next.(v) + next.(v - 1)
  done;
  let by_dst = Array.make links 0 in
  for l = 0 to links - 1 do
    let v = dst.(l) in
    by_dst.(next.(v)) <- l;
    next.(v) <- next.(v) + 1
  done;
  let start = Array.make (n + 1) 0 and widest = ref 0 in
  Array.iter (fun u -> start.(u + 1) <- start.(u + 1) + 1) src;
  for u = 1 to n do
    widest := max !widest start.(u);
    start.(u) <- start.(u) + start.(u - 1)
  done;
  Array.blit start 0 next 0 n;
  let peer = Array.make links 0 and link = Array.make links 0 in
  Array.iter
    (fun l ->
      let e = next.(src.(l)) in
      peer.(e) <- dst.(l);
      link.(e) <- l;
      next.(src.(l)) <- e + 1)
    by_dst;
  let rank = Array.make n (-1) and cores = ref 0 in
  for u = 0 to n - 1 do
    if start.(u + 1) - start.(u) <> 1 then begin
      rank.(u) <- !cores;
      incr cores
    end
  done;
  let cstart = Array.make (!cores + 1) 0 and centry = Array.make links 0 in
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

(* The same for the other direction of entry [e]'s cable. *)
let[@inline] usable_reverse t e = Topology.link_up t.topo (t.link.(e) lxor 1)

(* Level-synchronous BFS over the core rows from the core node of
   rank [root], in whichever direction scans less (Beamer, Asanovic and
   Patterson, SC 2012): while the frontier's rows hold fewer entries
   than there are unreached nodes, scan the frontier's rows (top-down);
   otherwise scan each unreached node's row for a peer on the frontier
   (bottom-up), stopping at the first. Either way a node is reached at
   the level after the first frontier node with an up link to it:
   bottom-up reads the flag of the reverse of the entry's link, the
   link top-down would read. Both give the same distances. While no
   link is down, the flags need no read per link. *)
let bfs_from t root =
  let { cstart; cpeer; centry; queue; _ } = t in
  let n = Array.length queue in
  let all_up = Topology.links_down t.topo = 0 in
  let dist = Array.make n max_int in
  let reached = ref 1 and entries = ref 0 in
  let reach v d =
    dist.(v) <- d;
    queue.(!reached) <- v;
    incr reached;
    entries := !entries + cstart.(v + 1) - cstart.(v)
  in
  dist.(root) <- 0;
  queue.(0) <- root;
  let lo = ref 0 and level = ref 0 in
  let frontier = ref (cstart.(root + 1) - cstart.(root)) in
  while !lo < !reached do
    let hi = !reached and d = !level + 1 in
    entries := 0;
    if !frontier < n - hi then
      for i = !lo to hi - 1 do
        let u = queue.(i) in
        for e = cstart.(u) to cstart.(u + 1) - 1 do
          let v = cpeer.(e) in
          if dist.(v) = max_int && (all_up || usable t centry.(e)) then
            reach v d
        done
      done
    else
      for v = 0 to n - 1 do
        if dist.(v) = max_int then begin
          let e = ref cstart.(v) and stop = cstart.(v + 1) in
          while !e < stop do
            if
              dist.(cpeer.(!e)) = !level
              && (all_up || usable_reverse t centry.(!e))
            then begin
              reach v d;
              e := stop
            end
            else incr e
          done
        end
      done;
    lo := hi;
    level := d;
    frontier := !entries
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

(* Adds entry [e] to the [count] candidates if its link is up; [all_up]
   says no link is down, which spares the flag read. *)
let[@inline] keep t ~all_up count e =
  if all_up || usable t e then begin
    t.closer.(count) <- e;
    count + 1
  end
  else count

(* The ECMP next hop of [node], [d] hops from [dst]: among its entries
   whose link is up and whose peer is one hop closer, the [hash3 choice
   node dst mod count]-th in (peer, link) order. A leaf's one entry is
   the only candidate; one hop out, the closer peer is [dst] itself,
   whose entries a binary search finds in the sorted row; further out
   it is a core node, so only the core row is scanned. Raises
   [Not_found] when there is none (a link went down since the table was
   computed). *)
let next_entry t tbl node d ~dst ~choice =
  let all_up = Topology.links_down t.topo = 0 in
  let count = ref 0 in
  let r = t.rank.(node) in
  if r < 0 then count := keep t ~all_up !count t.start.(node)
  else if d = 1 then begin
    let lo = ref t.start.(node) and hi = ref t.start.(node + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.peer.(mid) < dst then lo := mid + 1 else hi := mid
    done;
    let e = ref !lo and stop = t.start.(node + 1) in
    while !e < stop && t.peer.(!e) = dst do
      count := keep t ~all_up !count !e;
      incr e
    done
  end
  else
    for e = t.cstart.(r) to t.cstart.(r + 1) - 1 do
      if hop tbl t.cpeer.(e) = d - 1 then
        count := keep t ~all_up !count t.centry.(e)
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
