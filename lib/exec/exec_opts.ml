module Sim = Pdq_engine.Sim

(* ------------------------------------------------------------------ *)
(* Budgets. They sit here, below both [Scenario] and [Sweep], so
   single runs and sweeps enforce the same budget type without a
   dependency cycle. *)

type budget = { wall : float option; events : int option }

let budget ?wall ?events () = { wall; events }

(* Run [fn] with the budget installed as the calling domain's default
   cancellation hook, so every simulator the attempt creates enforces
   it. [start] anchors the wall-clock deadline at the attempt start. *)
let with_budget_from b ~start fn =
  if b.wall = None && b.events = None then fn ()
  else begin
    let deadline = Option.map (fun w -> start +. w) b.wall in
    let hook sim =
      match b.events with
      | Some m when Sim.events_executed sim > m ->
          Some (Printf.sprintf "events>%d" m)
      | _ -> (
          match deadline with
          | Some d when Unix.gettimeofday () > d ->
              Some (Printf.sprintf "wall>%gs" (Option.get b.wall))
          | _ -> None)
    in
    (* Tiny event budgets must be checked more often than the default
       grid or they would only trip at the first grid point. *)
    let every =
      match b.events with
      | Some m -> max 1 (min Sim.check_every ((m / 4) + 1))
      | None -> Sim.check_every
    in
    Sim.with_default_cancel ~every hook fn
  end

let with_budget b fn = with_budget_from b ~start:(Unix.gettimeofday ()) fn
