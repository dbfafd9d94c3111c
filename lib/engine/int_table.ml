(* Open addressing with linear probing over two parallel arrays, kept
   less than half full. A slot whose key is [vacant] (= [min_int]) is
   empty; the one binding whose key really is [min_int] lives beside
   the arrays. [remove] moves the rest of the probe run back into the
   slot it vacates (Knuth's Algorithm R), so there are no tombstones
   and every probe ends at the first empty slot. *)

let vacant = min_int

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int; (* 63 - log2 (capacity) *)
  mutable count : int; (* bindings in the arrays *)
  mutable min_bound : bool; (* [min_int] is bound, to [min_val] *)
  mutable min_val : 'a;
}

(* What an unbound value slot holds. It is an immediate, so [vals] is
   never a flat float array: a float value keeps its box in the slot,
   and [find] returns that box instead of allocating one. *)
let hole () : 'a = Obj.magic 0

(* Fibonacci hashing: the top [63 - shift] bits of the key times
   2^63 / golden ratio (odd, wrapped to 63 bits), which spreads dense
   and strided ids alike. *)
let home shift k = (k * 0x4F1BBCDCBFA53E0B) lsr shift

let rec log2 c = if c <= 1 then 0 else 1 + log2 (c lsr 1)

(* The arrays of every table created for no binding: most per-port
   tables stay empty, and cost no arrays of their own until the first
   [replace] grows them. At two slots, less than half full means empty,
   so nothing ever writes here. *)
let no_keys = [| vacant; vacant |]
let no_vals : Obj.t array = [| Obj.repr 0; Obj.repr 0 |]

let alloc t cap =
  t.keys <- Array.make cap vacant;
  t.vals <- Array.make cap (hole ());
  t.shift <- 63 - log2 cap;
  t.count <- 0

let create n =
  let t =
    {
      keys = no_keys;
      vals = Obj.magic no_vals;
      shift = 62;
      count = 0;
      min_bound = false;
      min_val = hole ();
    }
  in
  if n > 0 then begin
    let rec fits c = if c > 2 * n then c else fits (2 * c) in
    alloc t (fits 8)
  end;
  t

let length t = if t.min_bound then t.count + 1 else t.count

(* The slot holding [k], or the empty slot that ends its probe run.
   The loops are top-level functions: a local one would capture the
   arrays in a closure allocated on every call. *)
let rec probe keys mask k i =
  let s = keys.(i) in
  if s = k || s = vacant then i else probe keys mask k ((i + 1) land mask)

let slot t k =
  let keys = t.keys in
  probe keys (Array.length keys - 1) k (home t.shift k)

let mem t k =
  if k = vacant then t.min_bound else t.keys.(slot t k) = k

let find t k =
  if k = vacant then (if t.min_bound then t.min_val else raise Not_found)
  else
    let i = slot t k in
    if t.keys.(i) = k then t.vals.(i) else raise Not_found

let grow t =
  let keys = t.keys and vals = t.vals in
  alloc t (Int.max 8 (2 * Array.length keys));
  Array.iteri
    (fun j k ->
      if k <> vacant then begin
        let i = slot t k in
        t.keys.(i) <- k;
        t.vals.(i) <- vals.(j);
        t.count <- t.count + 1
      end)
    keys

let rec replace t k v =
  if k = vacant then begin
    t.min_bound <- true;
    t.min_val <- v
  end
  else
    let i = slot t k in
    if t.keys.(i) = k then t.vals.(i) <- v
    else if 2 * (t.count + 1) >= Array.length t.keys then begin
      grow t;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.count <- t.count + 1
    end

(* Slot [gap] was just vacated. Walk on through its run and move back
   every key whose probe passes [gap] (its home is cyclically at or
   before it), so no key is left behind an empty slot. *)
let rec close_gap t mask gap j =
  let k = t.keys.(j) in
  if k = vacant then begin
    t.keys.(gap) <- vacant;
    t.vals.(gap) <- hole ()
  end
  else if (j - home t.shift k) land mask >= (j - gap) land mask then begin
    t.keys.(gap) <- k;
    t.vals.(gap) <- t.vals.(j);
    close_gap t mask j ((j + 1) land mask)
  end
  else close_gap t mask gap ((j + 1) land mask)

let remove t k =
  if k = vacant then begin
    t.min_bound <- false;
    t.min_val <- hole ()
  end
  else
    let i = slot t k in
    if t.keys.(i) = k then begin
      t.count <- t.count - 1;
      let mask = Array.length t.keys - 1 in
      close_gap t mask i ((i + 1) land mask)
    end

let clear t =
  t.min_bound <- false;
  t.min_val <- hole ();
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) vacant;
    Array.fill t.vals 0 (Array.length t.vals) (hole ());
    t.count <- 0
  end

let fold f t acc =
  let acc = if t.min_bound then f vacant t.min_val acc else acc in
  let acc = ref acc in
  Array.iteri
    (fun i k -> if k <> vacant then acc := f k t.vals.(i) !acc)
    t.keys;
  !acc
