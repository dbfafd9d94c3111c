(** Shortest-path routing with flow-level ECMP.

    Paths are computed on the unweighted topology graph. When several
    shortest paths exist, the [choice] parameter (typically a flow or
    subflow id) deterministically selects one, emulating flow-level
    equal-cost multi-path forwarding: all packets of one flow use one
    path, different flows (or M-PDQ subflows) spread over the
    equal-cost alternatives. *)

type t

val create : Topology.t -> t
(** Build a router over the (final) topology. [create] snapshots the
    adjacency from {!Topology}'s link table into flat arrays, each
    node's neighbours sorted by (peer, link id) by two counting passes
    (link ids by destination, then each into its source's row), in
    O(V + E) for V nodes and E directed links; it makes no {!Link.t}.
    Links added to the topology afterwards are not seen. Distance
    tables are computed lazily per destination and cached. A node of
    degree 1 (a leaf, e.g. a fat-tree host) lies on no shortest path
    between two other nodes, so each table is one BFS over the other
    nodes (the core) and holds one word per core node; a leaf's
    distance is its neighbour's plus one. The BFS is level-synchronous
    and scans each level in whichever direction is cheaper: the
    frontier's rows (top-down) while they hold fewer entries than
    there are unreached nodes, else each unreached node's row until it
    finds a peer on the frontier (bottom-up). Both give the same
    distances. A leaf destination shares
    its neighbour's table instead of running its own BFS, so memory
    and set-up grow with the switches, not the hosts. Links that are
    administratively down are excluded from paths. Their status comes
    from {!Topology.link_up}, the flags that {!Topology.set_link_up}
    writes, and is read live, not snapshotted: a down link is never on
    a path, even one walked on a cached table. A link flipped with
    {!Link.set_up} alone is not seen. *)

val invalidate : t -> unit
(** Drop every cached distance table. Call after link status changes
    (failure or recovery) so subsequent paths reflect the live
    topology. Link failures must be symmetric (both directions of a
    duplex cable) — distance tables assume an undirected graph. *)

val distance : t -> src:int -> dst:int -> int
(** Hop count of the shortest path. Raises [Not_found] when
    unreachable. *)

val path_links : t -> src:int -> dst:int -> choice:int -> int array
(** The directed link ids of one shortest path from [src] to [dst],
    selected by hashing [choice] at each branching point: of the up
    links to a neighbour one hop closer, in (peer, link id) order, the
    walk takes the one the hash of ([choice], node, [dst]) indexes. No
    link on it is down, parallel cables included. The route's nodes are
    each link's {!Link.src} and the last link's {!Link.dst}. Once
    [dst]'s table is cached, a call costs O(sum of the degrees along
    the path) and allocates only its result. Raises [Not_found] when
    [dst] is unreachable. *)
