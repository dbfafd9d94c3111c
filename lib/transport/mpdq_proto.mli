(** Multipath PDQ (§6): each flow is striped over [subflows] PDQ
    subflows pinned to (potentially) different ECMP paths; the sender
    periodically shifts unsent load from paused subflows to the sending
    subflow with the smallest remaining load; the receiver completes
    the flow when the union of subflow bytes covers the flow size
    (single shared resequencing buffer, as in MPTCP). Switches need
    nothing beyond flow-level ECMP. *)

type t

val install :
  config:Pdq_core.Config.t ->
  ctx:Context.t ->
  until:float ->
  subflows:int ->
  ?paths:(src:int -> dst:int -> int array list) ->
  unit ->
  t
(** Subflow load shifts every 4 initial RTT estimates. [paths]
    supplies explicit parallel node paths per host pair (BCube
    address-based routing); without it, subflows rely on ECMP hashing
    over shortest paths. *)

val start_flow : t -> Context.flow -> unit

val pdq : t -> Pdq_proto.t
(** The underlying PDQ transport carrying the subflows (port
    inspection, telemetry probes). *)
