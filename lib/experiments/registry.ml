type cost = Quick | Slow
type domains = One_and_two | Only of int * string

type entry = {
  name : string;
  cost : cost;
  domains : domains;
  render : jobs:int option -> quick:bool -> Common.table list;
}

type sweep = ?jobs:int -> quick:bool -> unit -> Common.table

let entry ?(cost = Quick) ?(domains = One_and_two) name render =
  { name; cost; domains; render }

(* Tables computed one after the other, in list order. *)
let sweeps ?cost ?domains name (fs : sweep list) =
  entry ?cost ?domains name (fun ~jobs ~quick ->
      List.map (fun (f : sweep) -> f ?jobs ~quick ()) fs)

let single_runs name fs =
  entry name ~domains:(Only (1, "no sweep, so no worker count to vary"))
    (fun ~jobs:_ ~quick:_ -> List.map (fun f -> f ()) fs)

let all =
  [
    single_runs "fig1" [ Fig1.completion_table; Fig1.deadline_table ];
    sweeps "fig3a" [ Fig3.fig3a ];
    sweeps "fig3b" [ Fig3.fig3b ];
    sweeps "fig3c" ~cost:Slow [ Fig3.fig3c ];
    sweeps "fig3d" [ Fig3.fig3d ];
    sweeps "fig3e" [ Fig3.fig3e ];
    sweeps "fig4a" [ Fig4.fig4a ]
      ~domains:(Only (2, "the slowest quick table; one count keeps runtest short"));
    sweeps "fig4b" [ Fig4.fig4b ];
    sweeps "fig5a" ~cost:Slow [ Fig5.fig5a ];
    sweeps "fig5b" ~cost:Slow [ Fig5.fig5b ];
    sweeps "fig5c" ~cost:Slow [ Fig5.fig5c ];
    single_runs "fig6" [ Dynamics.fig6_table ];
    single_runs "fig7" [ Dynamics.fig7_table ];
    sweeps "fig8a" [ Fig8.fig8a ];
    sweeps "fig8b" [ Fig8.fig8b ];
    sweeps "fig8c" [ Fig8.fig8c ];
    sweeps "fig8d" [ Fig8.fig8d ];
    sweeps "fig8e" [ Fig8.fig8e ];
    sweeps "fig9" [ Fig9.fig9a; Fig9.fig9b ];
    sweeps "fig10" [ Fig10.fig10 ];
    sweeps "fig11a" [ Fig11.fig11a ];
    sweeps "fig11bc" [ Fig11.fig11bc ];
    sweeps "fig12" [ Fig12.fig12 ];
    sweeps "ablation" Ablation.[ early_start_k; probing; dampening ];
    single_runs "forensics"
      [ Fig3.attribution; Fig9.attribution; Resilience.attribution ];
    entry "apps" (fun ~jobs ~quick -> Apps.tables ?jobs ~quick ());
    entry "chaos" (fun ~jobs ~quick -> Chaos.tables ?jobs ~quick ());
    entry "resilience" (fun ~jobs ~quick -> Resilience.tables ?jobs ~quick ());
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let pinned_jobs e =
  match e.domains with One_and_two -> [ 1; 2 ] | Only (jobs, _) -> [ jobs ]
