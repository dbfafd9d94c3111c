(** Data-center topology constructors used by the paper's evaluation
    (§5.1, §5.5, §6): single-bottleneck, two-level single-rooted tree,
    fat-tree, BCube and Jellyfish. Every constructor returns the
    {!Pdq_net.Topology.t} plus the host list in a {!built} record. *)

type built = {
  topo : Pdq_net.Topology.t;
  hosts : int array; (** Host node ids in construction order. *)
}

val single_bottleneck :
  sim:Pdq_engine.Sim.t ->
  senders:int ->
  unit ->
  built * int
(** Fig. 2b: [senders] hosts, one switch, one receiver. The receiver is
    the extra int (it is also [hosts.(senders)]); the bottleneck is the
    switch→receiver link. *)

val single_rooted_tree :
  ?tors:int ->
  ?hosts_per_tor:int ->
  sim:Pdq_engine.Sim.t ->
  unit ->
  built
(** Fig. 2a: the default 17-node topology — a root switch, [tors]=4
    top-of-rack switches, [hosts_per_tor]=3 servers each (12 servers),
    all links 1 Gbps. Hosts carry their ToR index as rack id. *)

val fat_tree :
  sim:Pdq_engine.Sim.t ->
  k:int ->
  unit ->
  built
(** Standard k-ary fat-tree (k even): k pods of k/2 edge and k/2
    aggregation switches, (k/2)^2 cores, k^3/4 hosts. Rack id = edge
    switch index. *)

val fat_tree_for_servers :
  sim:Pdq_engine.Sim.t ->
  servers:int ->
  unit ->
  built
(** Smallest even-k fat-tree with at least [servers] hosts. *)

val bcube :
  sim:Pdq_engine.Sim.t ->
  n:int ->
  k:int ->
  unit ->
  built
(** BCube(n,k): n^(k+1) servers each with k+1 ports, k+1 levels of
    n-port switches (server-centric: servers forward traffic). The
    paper uses dual-port BCube (k=1) for Fig. 8c and BCube(2,3) —
    4-port servers — for Fig. 11. *)

val bcube_paths :
  n:int -> k:int -> built -> src:int -> dst:int -> int array list
(** BCube address-based routing (§6 of the paper, from the BCube
    paper): up to k+1 parallel node paths between two servers, one per
    rotation of the digit-correction order. Paths alternate
    host/switch/host…; different rotations leave the source through
    different server ports, which is exactly the diversity M-PDQ
    stripes subflows over. The [built] value must come from {!bcube}
    with the same [n]/[k]. *)

val jellyfish :
  sim:Pdq_engine.Sim.t ->
  rng:Pdq_engine.Rng.t ->
  switches:int ->
  ports:int ->
  net_ports:int ->
  unit ->
  built
(** Jellyfish: a random [net_ports]-regular graph over [switches]
    switches of [ports] ports; the remaining [ports - net_ports] ports
    of each switch attach hosts (Fig. 8d uses 24-port switches with a
    2:1 network:server port ratio → 16 network ports, 8 hosts). *)
