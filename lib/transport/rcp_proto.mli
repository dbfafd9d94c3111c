(** Packet-level RCP [10], the paper's optimized variant (§5.1):
    switches count the exact number of active flows per output link
    (SYN/TERM registration) and advertise the fair rate
    [(C − q/(2·RTT)) / N], recomputed whenever the flow count changes
    and every average RTT for the queue term. Equivalent to D3 when no
    flow has a deadline. *)

type t

val install : ctx:Context.t -> until:float -> t
(** Install switch state on every directed link, forwarding hooks and
    the periodic fair-rate updates (active until [until]). *)

val start_flow : t -> Context.flow -> unit

val flow_count : t -> link:int -> int
(** Active flows registered on a directed link (feeds the telemetry
    metrics prober). *)
