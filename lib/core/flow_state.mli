(** Per-flow state a PDQ switch remembers for each link (§3.3.1):
    the most recent [<R_i, P_i, D_i, T_i, RTT_i>] observed in packet
    headers. *)

type t = {
  flow_id : int;
  mutable rate : float;        (** [R_i]: last globally-accepted rate. *)
  mutable pause_by : int option; (** [P_i]: pausing switch, if any. *)
  mutable deadline : float option; (** [D_i]. *)
  mutable expected_tx_time : float; (** [T_i]. *)
  mutable rtt : float;         (** [RTT_i]. *)
  mutable last_seen : float;   (** Simulated time of the last packet. *)
}

val create :
  ?deadline:float -> flow_id:int -> expected_tx_time:float -> rtt:float ->
  now:float -> unit -> t
(** Fresh entry with [rate = 0] (a newly-stored flow starts paused,
    Algorithm 1). *)

val is_sending : t -> bool
(** [rate > 0] — the flow counts towards κ. *)

val update_from_header : t -> Header.t -> now:float -> unit
(** Refresh [D_i, T_i, RTT_i] (and [last_seen]) from a forward-path
    header, per Algorithm 1. *)
