module Fluid = Pdq_sched.Fluid

(* fA size 1 deadline 1; fB size 2 deadline 4; fC size 3 deadline 6.
   D3 processes arrivals in the order fB; fA; fC (Fig. 1d): we give fB
   an infinitesimally earlier release so the fluid D3 policy reserves
   for it first. *)
let jobs ~d3_order =
  let e = if d3_order then 1e-9 else 0. in
  [
    Fluid.job ~deadline:1. ~release:e ~id:0 ~size:1. ();
    Fluid.job ~deadline:4. ~release:0. ~id:1 ~size:2. ();
    Fluid.job ~deadline:6. ~release:(2. *. e) ~id:2 ~size:3. ();
  ]

let names = [| "fA"; "fB"; "fC" |]

let disciplines =
  [
    ("Fair sharing", fun () -> Fluid.fair_sharing ~rate:1. (jobs ~d3_order:false));
    ("SJF/EDF", fun () -> Fluid.srpt ~rate:1. (jobs ~d3_order:false));
    ("D3 (order fB;fA;fC)", fun () -> Fluid.d3_fluid ~rate:1. (jobs ~d3_order:true));
  ]

let finish_of completions id =
  List.find_opt (fun (c : Fluid.completion) -> c.Fluid.c_job = id) completions
  |> Option.map (fun (c : Fluid.completion) -> c.Fluid.finish)

let completion_table () =
  let rows =
    List.map
      (fun (name, f) ->
        let cs = f () in
        let cells =
          List.init 3 (fun i ->
              match finish_of cs i with
              | Some t -> Common.cell t
              | None -> "-")
        in
        (name :: cells) @ [ Common.cell (Fluid.mean_completion_time cs) ])
      disciplines
  in
  {
    Common.title = "Fig 1 - completion times (paper: fair 4.67, SJF 3.33)";
    header = [ "discipline"; "fA"; "fB"; "fC"; "mean FCT" ];
    rows;
  }

let deadline_table () =
  let base = jobs ~d3_order:false in
  let rows =
    List.map
      (fun (name, f) ->
        let cs = f () in
        let cells =
          List.init 3 (fun i ->
              let j = List.nth base i in
              match (finish_of cs i, j.Fluid.deadline) with
              | Some t, Some d -> if t <= d +. 1e-9 then "met" else "MISS"
              | _ -> "MISS")
        in
        let met = Fluid.deadlines_met base cs in
        (name :: cells) @ [ string_of_int met ])
      disciplines
  in
  {
    Common.title =
      "Fig 1 - deadlines (paper: fair misses fA+fB, EDF meets all, D3 misses fA)";
    header = ("discipline" :: Array.to_list names) @ [ "#met" ];
    rows;
  }
