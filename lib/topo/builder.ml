module Topology = Pdq_net.Topology

type built = { topo : Topology.t; hosts : int array }

let single_bottleneck ~sim ~senders () =
  let topo = Topology.create ~sim () in
  let sw = Topology.add_switch topo in
  let tx = Array.init senders (fun _ -> Topology.add_host topo) in
  Array.iter (fun h -> Topology.connect topo h sw) tx;
  let rx = Topology.add_host topo in
  Topology.connect topo sw rx;
  let hosts = Array.append tx [| rx |] in
  ({ topo; hosts }, rx)

let single_rooted_tree ?(tors = 4) ?(hosts_per_tor = 3) ~sim () =
  let topo = Topology.create ~sim () in
  let root = Topology.add_switch topo in
  let hosts = ref [] in
  for rack = 0 to tors - 1 do
    let tor = Topology.add_switch topo in
    Topology.connect topo root tor;
    for _ = 1 to hosts_per_tor do
      let h = Topology.add_host ~rack topo in
      Topology.connect topo tor h;
      hosts := h :: !hosts
    done
  done;
  { topo; hosts = Array.of_list (List.rev !hosts) }

let fat_tree ~sim ~k () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Builder.fat_tree: k must be even";
  let topo = Topology.create ~sim () in
  let half = k / 2 in
  let cores = Array.init (half * half) (fun _ -> Topology.add_switch topo) in
  let hosts = ref [] in
  for pod = 0 to k - 1 do
    let aggs = Array.init half (fun _ -> Topology.add_switch topo) in
    let edges = Array.init half (fun _ -> Topology.add_switch topo) in
    (* Aggregation <-> edge full bipartite inside the pod. *)
    Array.iter
      (fun agg -> Array.iter (fun edge -> Topology.connect topo agg edge) edges)
      aggs;
    (* Aggregation i connects to cores [i*half .. i*half+half-1]. *)
    Array.iteri
      (fun i agg ->
        for j = 0 to half - 1 do
          Topology.connect topo agg cores.((i * half) + j)
        done)
      aggs;
    (* half hosts per edge switch. *)
    Array.iteri
      (fun e edge ->
        let rack = (pod * half) + e in
        for _ = 1 to half do
          let h = Topology.add_host ~rack topo in
          Topology.connect topo edge h;
          hosts := h :: !hosts
        done)
      edges
  done;
  { topo; hosts = Array.of_list (List.rev !hosts) }

let fat_tree_for_servers ~sim ~servers () =
  let rec find k = if k * k * k / 4 >= servers then k else find (k + 2) in
  fat_tree ~sim ~k:(find 2) ()

let bcube ~sim ~n ~k () =
  if n < 2 then invalid_arg "Builder.bcube: need n >= 2";
  let num_hosts = int_of_float (float_of_int n ** float_of_int (k + 1)) in
  let topo = Topology.create ~sim () in
  let hosts = Array.init num_hosts (fun _ -> Topology.add_host topo) in
  (* Level l has n^k switches; switch s at level l connects the n hosts
     whose addresses agree with s on all digits except digit l. *)
  let num_per_level = num_hosts / n in
  for level = 0 to k do
    for s = 0 to num_per_level - 1 do
      let sw = Topology.add_switch topo in
      (* Split s into (high digits above level, low digits below). *)
      let stride = int_of_float (float_of_int n ** float_of_int level) in
      let low = s mod stride and high = s / stride in
      for digit = 0 to n - 1 do
        let host = (high * stride * n) + (digit * stride) + low in
        Topology.connect topo sw hosts.(host)
      done
    done
  done;
  { topo; hosts }

(* BCube address routing: correct the differing digits of the source
   address one at a time; each correction of digit [p] goes through the
   level-p switch shared by the two hosts. Starting the correction
   order at different positions yields parallel paths using different
   source ports. *)
let bcube_paths ~n ~k built ~src ~dst =
  let num_hosts = Array.length built.hosts in
  let num_per_level = num_hosts / n in
  let pow_n = Array.init (k + 2) (fun i -> int_of_float (float_of_int n ** float_of_int i)) in
  let digit h i = h / pow_n.(i) mod n in
  let set_digit h i v = h + ((v - digit h i) * pow_n.(i)) in
  let switch_of ~level h =
    let stride = pow_n.(level) in
    let low = h mod stride and high = h / (stride * n) in
    num_hosts + (level * num_per_level) + ((high * stride) + low)
  in
  if src = dst then invalid_arg "Builder.bcube_paths: src = dst";
  let paths = ref [] in
  for r = 0 to k do
    let order =
      List.init (k + 1) (fun i -> (r + i) mod (k + 1))
      |> List.filter (fun p -> digit src p <> digit dst p)
    in
    let rec walk cur acc = function
      | [] -> List.rev acc
      | p :: rest ->
          let next = set_digit cur p (digit dst p) in
          walk next (next :: switch_of ~level:p cur :: acc) rest
    in
    let path = Array.of_list (src :: walk src [] order) in
    if not (List.exists (fun q -> q = path) !paths) then paths := path :: !paths
  done;
  List.rev !paths

let jellyfish ~sim ~rng ~switches ~ports ~net_ports () =
  if net_ports >= ports then
    invalid_arg "Builder.jellyfish: net_ports must be < ports";
  let topo = Topology.create ~sim () in
  let sws = Array.init switches (fun _ -> Topology.add_switch topo) in
  let free = Array.make switches net_ports in
  let edges = Hashtbl.create (switches * net_ports) in
  let edge_key a b = (min a b * switches) + max a b in
  let linked a b = Hashtbl.mem edges (edge_key a b) in
  let add_edge a b =
    Hashtbl.replace edges (edge_key a b) ();
    free.(a) <- free.(a) - 1;
    free.(b) <- free.(b) - 1;
    Topology.connect topo sws.(a) sws.(b)
  in
  (* Random regular graph: repeatedly join two random switches with free
     ports; when stuck, the Jellyfish incremental fix-up would rewire an
     existing edge — at our sizes a bounded number of retries suffices
     and leftover odd ports are simply left unused. *)
  let attempts = ref 0 in
  let max_attempts = 200 * switches * net_ports in
  let candidates () =
    Array.to_list (Array.mapi (fun i f -> (i, f)) free)
    |> List.filter (fun (_, f) -> f > 0)
    |> List.map fst
  in
  let rec fill () =
    let cand = candidates () in
    if List.length cand >= 2 && !attempts < max_attempts then begin
      incr attempts;
      let arr = Array.of_list cand in
      let a = arr.(Pdq_engine.Rng.int rng (Array.length arr)) in
      let b = arr.(Pdq_engine.Rng.int rng (Array.length arr)) in
      if a <> b && not (linked a b) then add_edge a b;
      fill ()
    end
  in
  fill ();
  let hosts_per_switch = ports - net_ports in
  let hosts = ref [] in
  Array.iteri
    (fun rack sw ->
      for _ = 1 to hosts_per_switch do
        let h = Topology.add_host ~rack topo in
        Topology.connect topo sw h;
        hosts := h :: !hosts
      done)
    sws;
  { topo; hosts = Array.of_list (List.rev !hosts) }
