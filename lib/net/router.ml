(* Hop counts to one destination [dst]: 0 at [dst], [hops.(x) + extra]
   elsewhere, [max_int] when unreachable. A destination with its own BFS
   has [extra] = 0. A single-homed destination whose cable is up is
   reached only through its one neighbour, so it shares that
   neighbour's [hops] with [extra] = 1 instead of running its own BFS. *)
type table = { dst : int; hops : int array; extra : int }

type t = {
  topo : Topology.t;
  (* dst -> its distance table, computed by reverse BFS. The graph is
     symmetric (duplex links) so forward BFS suffices. *)
  dist_cache : (int, table) Hashtbl.t;
}

let create topo = { topo; dist_cache = Hashtbl.create 64 }
let invalidate t = Hashtbl.reset t.dist_cache

(* A link only carries traffic while administratively up; distance
   tables and next hops ignore down links, so recomputed routes steer
   around failures (call {!invalidate} after a status change). *)
let usable t link_id = Link.is_up (Topology.link t.topo link_id)

let bfs_from t root =
  let n = Topology.node_count t.topo in
  let dist = Array.make n max_int in
  dist.(root) <- 0;
  let q = Queue.create () in
  Queue.push root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, link) ->
        if dist.(v) = max_int && usable t link then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
      (Topology.links_from t.topo u)
  done;
  dist

let[@inline] dist tbl node =
  if node = tbl.dst then 0
  else
    let d = tbl.hops.(node) in
    if d = max_int then d else d + tbl.extra

let multi_homed t node =
  List.compare_length_with (Topology.links_from t.topo node) 1 > 0

let rec dist_to t dst =
  match Hashtbl.find_opt t.dist_cache dst with
  | Some tbl -> tbl
  | None ->
      let tbl =
        match Topology.links_from t.topo dst with
        | [ (v, link) ] when usable t link && multi_homed t v ->
            { dst; hops = (dist_to t v).hops; extra = 1 }
        | _ -> { dst; hops = bfs_from t dst; extra = 0 }
      in
      Hashtbl.add t.dist_cache dst tbl;
      tbl

let distance t ~src ~dst =
  let d = dist (dist_to t dst) src in
  if d = max_int then raise Not_found else d

(* Deterministic integer mixing for ECMP choice. *)
let hash3 a b c =
  let h = ref 0x9E3779B9 in
  let mix x =
    h := (!h lxor (x + 0x7F4A7C15 + (!h lsl 6) + (!h lsr 2))) land max_int
  in
  mix a;
  mix b;
  mix c;
  !h

let next_hops t tbl node =
  let d = dist tbl node in
  List.filter
    (fun (v, link) -> dist tbl v = d - 1 && usable t link)
    (Topology.links_from t.topo node)
  (* Sort for determinism: adjacency list order depends on insertion. *)
  |> List.sort compare

let path t ~src ~dst ~choice =
  let tbl = dist_to t dst in
  if dist tbl src = max_int then raise Not_found;
  let rec walk node acc =
    if node = dst then List.rev (node :: acc)
    else begin
      match next_hops t tbl node with
      | [] -> raise Not_found
      | hops ->
          let pick = hash3 choice node dst mod List.length hops in
          let next, _ = List.nth hops pick in
          walk next (node :: acc)
    end
  in
  Array.of_list (walk src [])

let path_links t ~src ~dst ~choice =
  let nodes = path t ~src ~dst ~choice in
  Array.init
    (Array.length nodes - 1)
    (fun i ->
      let l = Topology.link_to t.topo ~src:nodes.(i) ~dst:nodes.(i + 1) in
      Link.id l)
