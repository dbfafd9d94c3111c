module Topology = Pdq_net.Topology
module Json = Pdq_telemetry.Json

module type EVENT = sig
  type event

  val name : string
  val validate : event -> unit
  val cable : event -> (int * int) option
  val to_fields : event -> string
  val of_fields : (string * Json.t) list -> event
end

module type S = sig
  type event
  type t

  val empty : t
  val is_empty : t -> bool
  val of_events : (float * event) list -> t
  val events : t -> (float * event) list
  val merge : t -> t -> t
  val length : t -> int
  val check_cables : Topology.t -> t -> unit
  val to_json : t -> string
  val of_json : string -> (t, string) result
  val of_json_value : Json.t -> (t, string) result
end

let check_prob name what p =
  if (not (Float.is_finite p)) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "%s: %s probability %g" name what p)

let check_nonneg name what x =
  if (not (Float.is_finite x)) || x < 0. then
    invalid_arg (Printf.sprintf "%s: %s %g" name what x)

module Make (E : EVENT) = struct
  type event = E.event
  type t = (float * event) list

  let empty = []
  let is_empty t = t = []
  let sort l = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) l

  let of_events l =
    List.iter
      (fun (time, event) ->
        if time < 0. then
          invalid_arg (E.name ^ ".of_events: negative event time");
        if not (Float.is_finite time) then
          invalid_arg (E.name ^ ".of_events: non-finite event time");
        E.validate event)
      l;
    sort l

  let events t = t
  let merge a b = sort (a @ b)
  let length = List.length

  let check_cables topo t =
    List.iter
      (fun (_, event) ->
        Option.iter
          (fun (a, b) -> ignore (Topology.cable topo ~a ~b))
          (E.cable event))
      t

  (* One object per event; [Json.j_float] makes the round trip exact,
     which the chaos fuzzer's replayable reproducers rely on. *)
  let to_json t =
    let item (time, event) =
      Printf.sprintf "{\"t\":%s,%s}" (Json.j_float time) (E.to_fields event)
    in
    "[" ^ String.concat "," (List.map item t) ^ "]"

  (* "Fault_plan" reports JSON errors as "fault plan: ...". *)
  let json_error msg =
    let prefix =
      String.map (function '_' -> ' ' | c -> Char.lowercase_ascii c) E.name
    in
    Error (prefix ^ ": " ^ msg)

  let of_json_value v =
    match
      of_events
        (List.map
           (fun item ->
             let fields = Json.obj item in
             (Json.float fields "t", E.of_fields fields))
           (Json.arr v))
    with
    | t -> Ok t
    | exception Json.Parse_error msg -> json_error msg
    | exception Invalid_argument msg -> Error msg

  let of_json s =
    match Json.parse s with
    | v -> of_json_value v
    | exception Json.Parse_error msg -> json_error msg
end
