(* Binary min-heap on (prio, seq) in three parallel arrays — an unboxed
   [float array] for priorities and int arrays for sequence numbers and
   values — like the event queue in [Sim]. The sifts move a hole and
   write the moving entry once, at its final slot. Their indices stay
   below [size <= capacity], so they use unsafe accesses. *)
type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 256) () =
  let n = max 1 capacity in
  {
    prio = Array.make n 0.;
    seq = Array.make n 0;
    value = Array.make n 0;
    size = 0;
    next_seq = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let move h ~src ~dst =
  Array.unsafe_set h.prio dst (Array.unsafe_get h.prio src);
  Array.unsafe_set h.seq dst (Array.unsafe_get h.seq src);
  Array.unsafe_set h.value dst (Array.unsafe_get h.value src)

(* Sift the entry at [i] up to its place. *)
let sift_up h i =
  let hp = h.prio and hq = h.seq in
  let p = Array.unsafe_get hp i
  and s = Array.unsafe_get hq i
  and v = Array.unsafe_get h.value i in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get hp parent in
    if p < pp || (p = pp && s < Array.unsafe_get hq parent) then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set hp !i p;
  Array.unsafe_set hq !i s;
  Array.unsafe_set h.value !i v

(* Sift the entry at [i] down to its place. *)
let sift_down h i =
  let hp = h.prio and hq = h.seq and n = h.size in
  let p = Array.unsafe_get hp i
  and s = Array.unsafe_get hq i
  and v = Array.unsafe_get h.value i in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let pl = Array.unsafe_get hp l in
      let c =
        if
          r < n
          && (let pr = Array.unsafe_get hp r in
              pr < pl || (pr = pl && Array.unsafe_get hq r < Array.unsafe_get hq l))
        then r
        else l
      in
      let pc = Array.unsafe_get hp c in
      if pc < p || (pc = p && Array.unsafe_get hq c < s) then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set hp !i p;
  Array.unsafe_set hq !i s;
  Array.unsafe_set h.value !i v

(* Add an entry at the end, outside heap order. *)
let append h p v =
  let cap = Array.length h.prio in
  if h.size = cap then begin
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    h.prio <- grow h.prio 0.;
    h.seq <- grow h.seq 0;
    h.value <- grow h.value 0
  end;
  let i = h.size in
  h.prio.(i) <- p;
  h.seq.(i) <- h.next_seq;
  h.value.(i) <- v;
  h.next_seq <- h.next_seq + 1;
  h.size <- i + 1

let push h p v =
  append h p v;
  sift_up h (h.size - 1)

let heapify h =
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done

let empty_heap fn = invalid_arg ("Heap." ^ fn ^ ": empty heap")

let min_prio h = if h.size = 0 then empty_heap "min_prio" else h.prio.(0)

let pop h =
  if h.size = 0 then empty_heap "pop"
  else begin
    let top = h.value.(0) in
    let last = h.size - 1 in
    h.size <- last;
    if last > 0 then begin
      move h ~src:last ~dst:0;
      sift_down h 0
    end;
    top
  end

let filter h keep =
  let n = h.size in
  h.size <- 0;
  for i = 0 to n - 1 do
    if keep h.value.(i) then begin
      move h ~src:i ~dst:h.size;
      h.size <- h.size + 1
    end
  done;
  heapify h

let clear h =
  h.size <- 0;
  h.next_seq <- 0
