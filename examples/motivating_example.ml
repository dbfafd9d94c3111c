(* The paper's Figure 1, reproduced analytically with the fluid
   schedulers: three flows (sizes 1/2/3, deadlines 1/4/6) on a
   unit-rate bottleneck under fair sharing, SJF/EDF and D3; the tables
   of bench's fig1 target.

   Run with: dune exec examples/motivating_example.exe *)

open Pdq_experiments

let () =
  let fig1 = Option.get (Registry.find "fig1") in
  List.iter
    (Common.pp_table Format.std_formatter)
    (fig1.Registry.render ~jobs:None ~quick:true)
