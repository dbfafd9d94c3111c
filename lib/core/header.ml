type t = {
  mutable rate : float;
  mutable pause_by : int option;
  mutable pause_flow : int option;
  deadline : float option;
  mutable expected_tx_time : float;
  mutable inter_probe_rtts : float;
  mutable rtt : float;
}

let wire_bytes = 16

let make ?deadline ~rate ~expected_tx_time ~rtt () =
  {
    rate;
    pause_by = None;
    pause_flow = None;
    deadline;
    expected_tx_time;
    inter_probe_rtts = 0.;
    rtt;
  }

let copy t = { t with rate = t.rate }
