module Rng = Pdq_engine.Rng

type t = { dist_mean : float; draw : Rng.t -> int }

let sample t rng = max 1 (t.draw rng)
let mean t = t.dist_mean

let uniform ~lo ~hi =
  if lo > hi then invalid_arg "Size_dist.uniform: lo > hi";
  {
    dist_mean = float_of_int (lo + hi) /. 2.;
    draw = (fun rng -> lo + Rng.int rng (hi - lo + 1));
  }

let uniform_paper ~mean_bytes =
  let lo = 2_000 in
  let hi = (2 * mean_bytes) - lo in
  if hi <= lo then invalid_arg "Size_dist.uniform_paper: mean too small";
  uniform ~lo ~hi

let fixed size =
  { dist_mean = float_of_int size; draw = (fun _ -> size) }

let pareto ?(tail_index = 1.1) ~mean_bytes () =
  if tail_index <= 1. then invalid_arg "Size_dist.pareto: tail index <= 1";
  (* Mean of Pareto(shape a, scale m) is a*m/(a-1). *)
  let scale = float_of_int mean_bytes *. (tail_index -. 1.) /. tail_index in
  {
    dist_mean = float_of_int mean_bytes;
    draw =
      (fun rng ->
        (* Cap at 1000x the mean so one sample cannot dominate a whole
           experiment's runtime. *)
        let v = Rng.pareto rng ~shape:tail_index ~scale in
        int_of_float (min v (1000. *. float_of_int mean_bytes)));
  }

(* Piecewise mixture: a list of (weight, lo, hi) bands sampled
   log-uniformly within each band. *)
let mixture bands =
  let total = List.fold_left (fun acc (w, _, _) -> acc +. w) 0. bands in
  let bands = List.map (fun (w, lo, hi) -> (w /. total, lo, hi)) bands in
  let dist_mean =
    (* Mean of a log-uniform on [lo,hi] is (hi-lo)/ln(hi/lo). *)
    List.fold_left
      (fun acc (w, lo, hi) ->
        let m =
          if hi = lo then lo else (hi -. lo) /. log (hi /. lo)
        in
        acc +. (w *. m))
      0. bands
  in
  let draw rng =
    let u = Rng.float rng in
    let rec pick acc = function
      | [] -> List.nth bands (List.length bands - 1)
      | (w, lo, hi) :: rest ->
          if u < acc +. w then (w, lo, hi) else pick (acc +. w) rest
    in
    let _, lo, hi = pick 0. bands in
    let x = lo *. exp (Rng.float rng *. log (hi /. lo)) in
    int_of_float x
  in
  { dist_mean; draw }

let vl2 () =
  (* Shape from Greenberg et al. (VL2, Fig. 2): most flows are mice,
     >90% of bytes live in flows between 100 MB and 1 GB; we trim the
     elephant ceiling to 100 MB to keep simulations tractable while
     preserving mice-dominate-flows / elephants-dominate-bytes. *)
  mixture
    [
      (0.55, 1e3, 1e4);   (* mice: 1-10 KB *)
      (0.30, 1e4, 1e5);   (* small: 10-100 KB *)
      (0.10, 1e5, 1e6);   (* medium: 0.1-1 MB *)
      (0.05, 1e6, 1e8);   (* elephants: 1-100 MB *)
    ]

let edu1 () =
  (* Benson et al., EDU1: median ~5 KB, tail to ~10 MB. *)
  mixture
    [
      (0.50, 5e2, 1e4);
      (0.35, 1e4, 1e5);
      (0.13, 1e5, 1e6);
      (0.02, 1e6, 1e7);
    ]
