(** Deliberately broken protocol configurations for validating the
    validators. *)

val broken_allocator : Pdq_core.Config.t
(** PDQ(Full) with an unbounded Early Start budget and a rate
    controller that never throttles: every stored flow is granted the
    full line rate at once, so links are persistently oversubscribed.
    The capacity monitor must report this; a monitor that passes it is
    broken. Used by the test suite and exposed on the CLI as
    [--proto pdq-broken]. *)
