type features = {
  early_start : bool;
  early_termination : bool;
  suppressed_probing : bool;
}

type t = {
  features : features;
  k_early_start : float;
  probe_x : float;
  dampening : float;
  min_list_size : int;
  max_list_size : int;
  queue_allowance_bytes : int;
}

let full =
  {
    features =
      { early_start = true; early_termination = true; suppressed_probing = true };
    k_early_start = 2.;
    probe_x = 0.2;
    dampening = 20e-6;
    min_list_size = 8;
    max_list_size = 10_000;
    queue_allowance_bytes = 1500;
  }

let es_et =
  { full with features = { full.features with suppressed_probing = false } }

let es =
  {
    full with
    features =
      {
        early_start = true;
        early_termination = false;
        suppressed_probing = false;
      };
  }

let basic =
  {
    full with
    features =
      {
        early_start = false;
        early_termination = false;
        suppressed_probing = false;
      };
  }

let name t =
  match t.features with
  | { early_start = false; early_termination = false; suppressed_probing = false }
    ->
      "PDQ(Basic)"
  | { early_start = true; early_termination = false; suppressed_probing = false }
    ->
      "PDQ(ES)"
  | { early_start = true; early_termination = true; suppressed_probing = false }
    ->
      "PDQ(ES+ET)"
  | { early_start = true; early_termination = true; suppressed_probing = true }
    ->
      "PDQ(Full)"
  | _ -> "PDQ(custom)"

let with_k t k = { t with k_early_start = k }
