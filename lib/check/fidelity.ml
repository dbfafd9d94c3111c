type band = {
  id : string;
  figure : string;
  metric : string;
  lo : float;
  hi : float;
}

type outcome = { band : band; value : float; ok : bool }

let band ~id ~figure ~metric ~lo ~hi = { id; figure; metric; lo; hi }

(* NaN is always a failure: a metric that did not compute is drift, not
   a pass. *)
let eval b value =
  { band = b; value; ok = Float.is_finite value && value >= b.lo && value <= b.hi }

let all_ok = List.for_all (fun o -> o.ok)

let pp_outcome ppf o =
  Format.fprintf ppf "%-26s %-10s %-24s %12.6g  [%g, %g]  %s" o.band.id
    o.band.figure o.band.metric o.value o.band.lo o.band.hi
    (if o.ok then "ok" else "FAIL")

let pp_outcomes ppf os =
  List.iter (fun o -> Format.fprintf ppf "%a@." pp_outcome o) os;
  let failed = List.filter (fun o -> not o.ok) os in
  if failed = [] then
    Format.fprintf ppf "fidelity: %d/%d metrics in band@." (List.length os)
      (List.length os)
  else
    Format.fprintf ppf "fidelity: %d/%d metrics OUT OF BAND@."
      (List.length failed) (List.length os)
