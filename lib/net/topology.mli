(** Mutable network topology: hosts and switches connected by duplex
    links, with per-node packet handlers installed by the transport
    layer.

    Links are kept in a flat table indexed by link id: each link's
    endpoints and its up flag. Every link has the paper's §5.1
    settings: 1 Gbps, 0.1 µs propagation, 25 µs processing and a
    4 MByte FIFO tail-drop buffer. The packet-level {!Link.t} of a link, its
    queue and transmitter, is made the first time {!link} asks for it,
    so code that reads only rates and the graph ({!link_rate},
    {!link_src}, {!link_dst}, {!links_from}, [Router], the flow-level
    simulator) makes none.

    A topology belongs to one simulator and so to one domain: {!link}
    (and every reader that goes through it: {!reverse}, {!cable},
    {!iter_links}) may write to the topology when it makes a link, so
    a topology must not be read from two domains at once.

    Every function that takes a node or link id raises
    [Invalid_argument] naming the function and the id when the id is
    not below {!node_count} or {!link_count}. *)

type node_kind = Host | Switch

type t

exception No_handler of int
(** Raised (with the node id) when a packet reaches a node whose
    handler was never installed with {!set_handler} — a wiring bug in
    the transport layer, not a runtime network condition. *)

val create : sim:Pdq_engine.Sim.t -> unit -> t

val sim : t -> Pdq_engine.Sim.t

val add_host : ?rack:int -> t -> int
(** New host node; returns its id. [rack] groups hosts under a
    top-of-rack switch for the staggered traffic pattern. *)

val add_switch : t -> int
(** New switch node; returns its id. *)

val connect : t -> int -> int -> unit
(** Add a duplex link (two directed links, ids [2k] for [a -> b] and
    [2k + 1] for [b -> a]) between two nodes, with the §5.1 settings.
    It records the links in the link table and makes no {!Link.t}. *)

val node_count : t -> int
val kind : t -> int -> node_kind

val rack_of : t -> int -> int
(** Rack id of a host (0 when unspecified). *)

val set_handler : t -> int -> (Packet.t -> unit) -> unit
(** Install the packet handler for a node; links deliver arriving
    packets to it. *)

val link_count : t -> int

val link : t -> int -> Link.t
(** Directed link by id. The first call for an id makes its {!Link.t},
    delivering to the destination node's handler and with the status
    {!link_up} reports; every later call returns that same object. *)

val link_src : t -> int -> int
val link_dst : t -> int -> int
(** Endpoints of a directed link by id, read from the link table. *)

val link_rate : t -> int -> float
(** Rate of a directed link by id (bits/s): 1 Gbps, as every link's. *)

val links_from : t -> int -> (int * int) list
(** [(peer, link_id)] adjacency of a node, newest link first. *)

val reverse : t -> Link.t -> Link.t
(** The other direction of the link's cable: [src] and [dst] swapped,
    the same rate, delays and buffer. O(1). *)

val cables : t -> (int * int) list
(** Every duplex cable as an (a, b) pair with [a < b], in first-link-id
    order, host access links included. *)

val cable : t -> a:int -> b:int -> Link.t list
(** The two directed links of the duplex cable between [a] and [b],
    [a -> b] first: the one lookup from a node pair to links, for
    fault plans and source routes, which name cables by their
    endpoints. Of parallel cables it finds the newest. Raises
    [Invalid_argument] naming the cable if [a] and [b] are not
    adjacent nodes. *)

val set_link_up : t -> a:int -> b:int -> bool -> unit
(** Fail ([false]) or restore ([true]) both directions of the duplex
    cable between adjacent nodes [a] and [b]. This is the one writer of
    link status that routing sees: it sets each {!Link.t}'s status
    (what the link admits, set when the link is made if it is not yet)
    and the flag {!link_up} reads, together. Of
    parallel cables it addresses only the newest, as {!cable} does.
    Raises [Invalid_argument] as {!cable} does. *)

val link_up : t -> int -> bool
(** Status of a directed link by id, as last set by {!set_link_up};
    [true] from {!connect} on. The flags sit in one flat array indexed
    by link id, so [Router] reads them live without touching any
    {!Link.t}. *)

val links_down : t -> int
(** How many directed links {!link_up} reports down. While it is 0, a
    reader may skip the per-link flags. *)

val iter_links : (Link.t -> unit) -> t -> unit
(** Every link in id order, through {!link}, so it makes them all. *)
