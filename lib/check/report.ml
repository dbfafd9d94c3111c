type violation = {
  time : float;
  entity : string;
  invariant : string;
  detail : string;
}

let violation ~time ~entity ~invariant detail = { time; entity; invariant; detail }

let pp ppf v =
  Format.fprintf ppf "[%.6f] %s %s: %s" v.time v.invariant v.entity v.detail

let to_json v =
  let esc = Pdq_telemetry.Json.escape in
  Printf.sprintf {|{"t":%.9f,"invariant":"%s","entity":"%s","detail":"%s"}|}
    v.time (esc v.invariant) (esc v.entity) (esc v.detail)

let write_jsonl oc vs =
  List.iter
    (fun v ->
      output_string oc (to_json v);
      output_char oc '\n')
    vs;
  flush oc

let pp_list ppf = function
  | [] -> Format.fprintf ppf "no invariant violations@."
  | vs ->
      Format.fprintf ppf "%d invariant violation(s):@." (List.length vs);
      List.iter (fun v -> Format.fprintf ppf "  %a@." pp v) vs
