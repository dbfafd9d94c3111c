type t = {
  flow_id : int;
  mutable rate : float;
  mutable pause_by : int option;
  mutable deadline : float option;
  mutable expected_tx_time : float;
  mutable rtt : float;
  mutable last_seen : float;
}

let create ?deadline ~flow_id ~expected_tx_time ~rtt ~now () =
  {
    flow_id;
    rate = 0.;
    pause_by = None;
    deadline;
    expected_tx_time;
    rtt;
    last_seen = now;
  }

let is_sending t = t.rate > 0.

let update_from_header t (h : Header.t) ~now =
  t.deadline <- h.deadline;
  t.expected_tx_time <- h.expected_tx_time;
  if h.rtt > 0. then t.rtt <- h.rtt;
  t.last_seen <- now
