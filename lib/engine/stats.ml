let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

type cdf = (float * float) array

let cdf xs =
  let n = Array.length xs in
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  Array.mapi (fun i x -> (x, float_of_int (i + 1) /. float_of_int n)) sorted

let cdf_at c x =
  (* Binary search for the largest value <= x. *)
  let n = Array.length c in
  if n = 0 || fst c.(0) > x then 0.
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst c.(mid) <= x then lo := mid else hi := mid - 1
    done;
    snd c.(!lo)
  end

let fraction pred xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let k = Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 xs in
    float_of_int k /. float_of_int n
  end

module Tally = struct
  type t = (string, int ref) Hashtbl.t

  let create () = Hashtbl.create 16

  let incr t key =
    match Hashtbl.find_opt t key with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.add t key (ref 1)

  let count t key =
    match Hashtbl.find_opt t key with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0
end
