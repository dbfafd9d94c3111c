type t = {
  mutable times : float array;
  mutable values : float array;
  mutable size : int;
}

let create () = { times = [||]; values = [||]; size = 0 }

let add t time value =
  if Array.length t.times = t.size then begin
    let cap = max 64 (2 * t.size) in
    let times = Array.make cap 0. and values = Array.make cap 0. in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.values 0 values 0 t.size;
    t.times <- times;
    t.values <- values
  end;
  t.times.(t.size) <- time;
  t.values.(t.size) <- value;
  t.size <- t.size + 1

let bins_of t ~width ~t_end =
  let nbins = max 1 (int_of_float (ceil (t_end /. width))) in
  let sums = Array.make nbins 0. and counts = Array.make nbins 0 in
  for i = 0 to t.size - 1 do
    let b = int_of_float (t.times.(i) /. width) in
    if b >= 0 && b < nbins then begin
      sums.(b) <- sums.(b) +. t.values.(i);
      counts.(b) <- counts.(b) + 1
    end
  done;
  (nbins, sums, counts)

let bin_mean t ~width ~t_end =
  let nbins, sums, counts = bins_of t ~width ~t_end in
  Array.init nbins (fun b ->
      let center = (float_of_int b +. 0.5) *. width in
      let v = if counts.(b) = 0 then 0. else sums.(b) /. float_of_int counts.(b) in
      (center, v))

let integrate_rate t ~width ~t_end =
  let nbins, sums, _counts = bins_of t ~width ~t_end in
  Array.init nbins (fun b ->
      let center = (float_of_int b +. 0.5) *. width in
      (center, sums.(b) /. width))
