type key = { deadline : float option; expected_tx_time : float; flow_id : int }

(* The EDF -> SJF -> id rule, over bare fields so that callers keeping
   them in their own records compare without building a [key]. *)
let compare_fields da (ta : float) (ia : int) db tb ib =
  let by_deadline =
    match (da, db) with
    | Some (da : float), Some db -> Stdlib.compare da db
    | Some _, None -> -1
    | None, Some _ -> 1
    | None, None -> 0
  in
  if by_deadline <> 0 then by_deadline
  else begin
    let by_ttx = Stdlib.compare ta tb in
    if by_ttx <> 0 then by_ttx else Stdlib.compare ia ib
  end

let compare a b =
  compare_fields a.deadline a.expected_tx_time a.flow_id b.deadline
    b.expected_tx_time b.flow_id

let more_critical a b = compare a b < 0

let aged_tx_time ~aging_rate ~wait ~expected_tx_time =
  (* T_H is divided by 2^(alpha * t) with t in units of 100 ms. *)
  let t = wait /. 0.1 in
  expected_tx_time /. (2. ** (aging_rate *. t))
