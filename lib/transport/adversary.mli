(** Live interposition of a plan's adversarial events
    ({!Pdq_faults.Fault_plan.is_adversarial}) on a built topology.

    {!install} wraps the delivery callback of every directed link the
    plan can touch (via {!Pdq_net.Link.receiver} /
    {!Pdq_net.Link.set_receiver}), plus every link entering a
    clock-skewed switch. The wrapper applies the currently active
    conditions to each arriving packet in a fixed draw order (corrupt,
    duplicate, reorder, jitter), on the forward scheduling pass only
    (SYN / DATA / PROBE / TERM); reverse-pass feedback is never
    touched, and corruption additionally fires only on directions
    entering a switch, where the next allocator clamps the damage —
    both restrictions keep a {e correct} protocol distinguishable
    from a broken one under adversarial input (see the model notes in
    DESIGN.md §9).

    Determinism: a plan without adversarial events installs nothing
    and draws nothing; otherwise one per-link rng is split per wrapped
    link in link-id order at install time, and per-packet draws then
    follow the simulator's deterministic packet arrival order — the
    same seed is bit-identical on any worker domain. *)

val install :
  sim:Pdq_engine.Sim.t ->
  topo:Pdq_net.Topology.t ->
  rng:Pdq_engine.Rng.t ->
  Pdq_faults.Fault_plan.t ->
  unit
(** Wrap the targeted links and schedule the plan's condition changes;
    network events are left to {!Pdq_faults.Fault_plan.install}.
    {!Runner.execute} calls it after the context is created and before
    the protocol is installed. Raises [Invalid_argument] if the plan
    names a cable absent from this topology
    ({!Pdq_net.Topology.cable}). *)
