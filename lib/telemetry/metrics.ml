type serie = { mutable points_rev : (float * float) list; mutable n : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, float list ref) Hashtbl.t;
  series_tbl : (string, serie) Hashtbl.t;
  (* Sample emission order across all series, for chronological export
     without re-sorting: (time, name, value). *)
  mutable samples_rev : (float * string * float) list;
}

let create () =
  {
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 8;
    series_tbl = Hashtbl.create 64;
    samples_rev = [];
  }

module Name = struct
  let link_util id = Printf.sprintf "link.%d.util" id
  let link_queue_bytes id = Printf.sprintf "link.%d.queue_bytes" id
  let port_flows_active link = Printf.sprintf "port.%d.flows_active" link
  let port_flows_paused link = Printf.sprintf "port.%d.flows_paused" link
  let flow_fct_ms = "flow.fct_ms"
  let watchdog_abort cause = Printf.sprintf "watchdog.abort.%s" cause
end

type counter = int ref

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr c ?(by = 1) () = c := !c + by
let counter_value c = !c

type histogram = float list ref

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.hists name r;
      r

let observe h v = h := v :: !h

let histogram_summary h =
  match !h with
  | [] -> None
  | samples ->
      let xs = Array.of_list samples in
      let n = Array.length xs in
      let p q = Pdq_engine.Stats.percentile xs q in
      Some
        ( n,
          Pdq_engine.Stats.mean xs,
          p 50.,
          p 90.,
          p 99.,
          snd (Pdq_engine.Stats.min_max xs) )

let sample t ~time ~name ~value =
  let s =
    match Hashtbl.find_opt t.series_tbl name with
    | Some s -> s
    | None ->
        let s = { points_rev = []; n = 0 } in
        Hashtbl.add t.series_tbl name s;
        s
  in
  s.points_rev <- (time, value) :: s.points_rev;
  s.n <- s.n + 1;
  t.samples_rev <- (time, name, value) :: t.samples_rev

let series t ~name =
  match Hashtbl.find_opt t.series_tbl name with
  | Some s -> Array.of_list (List.rev s.points_rev)
  | None -> [||]

let series_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.series_tbl [] |> List.sort compare

let add_counters t kvs =
  List.iter (fun (k, v) -> incr (counter t k) ~by:v ()) kvs

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fl = Printf.sprintf "%.9g"

(* Scalar rows shared by both exporters, deterministic order. *)
let scalar_rows t =
  let counter_rows =
    List.map (fun (k, v) -> ("counter", k, float_of_int v)) (counters t)
  in
  let hist_rows =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.hists []
    |> List.sort compare
    |> List.concat_map (fun (k, h) ->
           match histogram_summary h with
           | None -> []
           | Some (n, mean, p50, p90, p99, max_v) ->
               [
                 ("hist.count", k, float_of_int n);
                 ("hist.mean", k, mean);
                 ("hist.p50", k, p50);
                 ("hist.p90", k, p90);
                 ("hist.p99", k, p99);
                 ("hist.max", k, max_v);
               ])
  in
  counter_rows @ hist_rows

(* RFC 4180: a field containing commas, quotes or newlines is wrapped
   in double quotes with embedded quotes doubled. Instrument names are
   caller-chosen strings, so they cannot be trusted to stay out of the
   delimiter alphabet. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let write_csv t chan =
  output_string chan "kind,time,name,value\n";
  List.iter
    (fun (time, name, value) ->
      Printf.fprintf chan "sample,%s,%s,%s\n" (fl time) (csv_field name)
        (fl value))
    (List.rev t.samples_rev);
  List.iter
    (fun (kind, name, value) ->
      Printf.fprintf chan "%s,,%s,%s\n" kind (csv_field name) (fl value))
    (scalar_rows t);
  flush chan

let write_jsonl t chan =
  List.iter
    (fun (time, name, value) ->
      Printf.fprintf chan
        "{\"kind\":\"sample\",\"t\":%s,\"name\":\"%s\",\"value\":%s}\n"
        (fl time) (Json.escape name) (fl value))
    (List.rev t.samples_rev);
  List.iter
    (fun (kind, name, value) ->
      Printf.fprintf chan "{\"kind\":\"%s\",\"name\":\"%s\",\"value\":%s}\n"
        kind (Json.escape name) (fl value))
    (scalar_rows t);
  flush chan
