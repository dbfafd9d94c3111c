(** Live interposition of an {!Adversary_plan} on a built topology.

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

    Determinism: the empty plan installs nothing and draws nothing; a
    non-empty plan splits one per-link rng per wrapped link in link-id
    order at install time, and per-packet draws then follow the
    simulator's deterministic packet arrival order — the same seed is
    bit-identical on any worker domain. *)

val install :
  sim:Pdq_engine.Sim.t ->
  topo:Pdq_net.Topology.t ->
  rng:Pdq_engine.Rng.t ->
  Adversary_plan.t ->
  unit
(** Wrap the targeted links and schedule the plan's condition changes.
    Call after the topology is built and before the run starts — the
    {!Pdq_exec.Scenario.run} [?prepare] hook is the sanctioned site.
    Raises [Invalid_argument] if the plan names a cable absent from
    this topology ({!Pdq_net.Topology.cable}). *)
