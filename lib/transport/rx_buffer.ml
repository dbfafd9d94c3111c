(* Reassembly state as a sorted list of disjoint received byte
   intervals [lo, hi). Interval count stays tiny (one per loss/
   reordering hole), and arbitrary segment boundaries — e.g. after
   M-PDQ load rebalancing — are handled exactly. *)
type t = {
  mutable size : int;
  capacity : int;
  mutable intervals : (int * int) list; (* sorted, disjoint, non-adjacent *)
  mutable received : int;
}

let create ?capacity ~size ~segment () =
  if segment <= 0 then invalid_arg "Rx_buffer.create: segment <= 0";
  let capacity = Int.max size (Option.value capacity ~default:size) in
  { size; capacity; intervals = []; received = 0 }

let set_size t size =
  if size < t.received then invalid_arg "Rx_buffer.set_size: below received";
  if size > t.capacity then invalid_arg "Rx_buffer.set_size: beyond capacity";
  t.size <- size

let on_data t ~seq ~bytes =
  let lo = Int.max 0 seq and hi = Int.min t.size (seq + bytes) in
  if hi > lo then begin
    (* Merge [lo, hi) into the interval list. *)
    let rec merge acc lo hi = function
      | [] -> List.rev ((lo, hi) :: acc)
      | (a, b) :: rest when b < lo -> merge ((a, b) :: acc) lo hi rest
      | (a, b) :: rest when a > hi -> List.rev_append acc ((lo, hi) :: (a, b) :: rest)
      | (a, b) :: rest -> merge acc (Int.min a lo) (Int.max b hi) rest
    in
    let merged = merge [] lo hi t.intervals in
    t.intervals <- merged;
    t.received <-
      List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 merged
  end

let cumulative_ack t =
  match t.intervals with (0, hi) :: _ -> hi | _ -> 0

let received_bytes t = t.received
let complete t = t.received >= t.size
