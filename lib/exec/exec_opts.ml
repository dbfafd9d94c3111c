module Sim = Pdq_engine.Sim

(* ------------------------------------------------------------------ *)
(* Budgets. They sit here, below both [Scenario] and [Sweep], so
   single runs and sweeps enforce the same budget type without a
   dependency cycle. *)

type budget = {
  wall : float option;
  events : int option;
  live : int option;
  check_every : int;
}

let budget ?wall ?events ?live ?(check_every = 1024) () =
  { wall; events; live; check_every = max 1 check_every }

let budget_is_empty b = b.wall = None && b.events = None && b.live = None

(* Run [fn] with the budget installed as the calling domain's default
   cancellation hook, so every simulator the attempt creates enforces
   it. [start] anchors the wall-clock deadline at the attempt start. *)
let with_budget_from b ~start fn =
  if budget_is_empty b then fn ()
  else begin
    let deadline = Option.map (fun w -> start +. w) b.wall in
    let hook sim =
      match b.events with
      | Some m when Sim.events_executed sim > m ->
          Some (Printf.sprintf "events>%d" m)
      | _ -> (
          match b.live with
          | Some m when Sim.live_pending sim > m ->
              Some (Printf.sprintf "live>%d" m)
          | _ -> (
              match deadline with
              | Some d when Unix.gettimeofday () > d ->
                  Some (Printf.sprintf "wall>%gs" (Option.get b.wall))
              | _ -> None))
    in
    (* Tiny event budgets must be checked more often than the default
       grid or they would only trip at the first grid point. *)
    let every =
      match b.events with
      | Some m -> max 1 (min b.check_every ((m / 4) + 1))
      | None -> b.check_every
    in
    Sim.with_default_cancel ~every hook fn
  end

let with_budget b fn = with_budget_from b ~start:(Unix.gettimeofday ()) fn
