type t = { mutable entries : Flow_state.t array; mutable size : int }

let create () = { entries = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let rec index_from entries size flow_id i =
  if i >= size then -1
  else if entries.(i).Flow_state.flow_id = flow_id then i
  else index_from entries size flow_id (i + 1)

let index_of t flow_id = index_from t.entries t.size flow_id 0

let mem t flow_id = index_of t flow_id >= 0

(* [compare_entries a b < 0] iff entry [a] is more critical than entry [b]. *)
let compare_entries (a : Flow_state.t) (b : Flow_state.t) =
  Criticality.compare_fields a.deadline a.expected_tx_time a.flow_id
    b.deadline b.expected_tx_time b.flow_id

let ensure_room t filler =
  if Array.length t.entries = 0 then t.entries <- Array.make 8 filler
  else if t.size = Array.length t.entries then begin
    let entries = Array.make (2 * t.size) filler in
    Array.blit t.entries 0 entries 0 t.size;
    t.entries <- entries
  end

(* Position at which [state] belongs so order stays sorted by
   criticality (most critical first). *)
let insertion_point t state =
  let rec scan i =
    if i >= t.size then i
    else if compare_entries state t.entries.(i) < 0 then i
    else scan (i + 1)
  in
  scan 0

let insert t state =
  assert (not (mem t state.Flow_state.flow_id));
  ensure_room t state;
  let pos = insertion_point t state in
  Array.blit t.entries pos t.entries (pos + 1) (t.size - pos);
  t.entries.(pos) <- state;
  t.size <- t.size + 1;
  pos

let remove_at t i =
  let state = t.entries.(i) in
  Array.blit t.entries (i + 1) t.entries i (t.size - i - 1);
  t.size <- t.size - 1;
  state

let remove t flow_id =
  let i = index_of t flow_id in
  if i < 0 then None else Some (remove_at t i)

let remove_least_critical t =
  if t.size = 0 then None
  else begin
    t.size <- t.size - 1;
    Some t.entries.(t.size)
  end

let least_critical t = if t.size = 0 then None else Some t.entries.(t.size - 1)

(* The rest of the list is sorted and the order is strict, so the
   entry has exactly one place: sifting it there in whichever direction
   it moved gives the list that removing and re-inserting it would. *)
let reposition_at t i =
  if i < 0 || i >= t.size then
    invalid_arg "Flow_list.reposition_at: out of bounds";
  let e = t.entries in
  let state = e.(i) in
  let j = ref i in
  while !j > 0 && compare_entries state e.(!j - 1) < 0 do
    e.(!j) <- e.(!j - 1);
    decr j
  done;
  if !j = i then
    while !j + 1 < t.size && compare_entries e.(!j + 1) state < 0 do
      e.(!j) <- e.(!j + 1);
      incr j
    done;
  e.(!j) <- state;
  !j

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Flow_list.get: out of bounds";
  t.entries.(i)

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.entries.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.entries.(i)
  done;
  !acc

let sending_count t =
  fold (fun n s -> if Flow_state.is_sending s then n + 1 else n) 0 t

let total_rate t = fold (fun acc s -> acc +. s.Flow_state.rate) 0. t

let is_sorted t =
  let ok = ref true in
  for i = 0 to t.size - 2 do
    if compare_entries t.entries.(i) t.entries.(i + 1) >= 0 then ok := false
  done;
  !ok
