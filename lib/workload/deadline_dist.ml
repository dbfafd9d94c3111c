type t = { mean : float; floor : float }

let exponential ?(floor = 3e-3) ~mean () =
  if mean <= 0. then invalid_arg "Deadline_dist.exponential: mean <= 0";
  { mean; floor }

let sample t rng = max t.floor (Pdq_engine.Rng.exponential rng ~mean:t.mean)
