type drop_cause = Loss | Overflow | Link_down | Stale_route

let drop_cause_name = function
  | Loss -> "loss"
  | Overflow -> "overflow"
  | Link_down -> "down"
  | Stale_route -> "stale_route"

type event =
  | Flow_admitted of {
      flow : int;
      src : int;
      dst : int;
      size : int;
      deadline : float option;
    }
  | Flow_started of { flow : int }
  | Flow_established of { flow : int }
  | Flow_paused of { flow : int; by : int; preempted_by : int option }
  | Flow_resumed of { flow : int; rate : float }
  | Flow_rate_set of { flow : int; rate : float }
  | Flow_completed of { flow : int; fct : float }
  | Flow_terminated of { flow : int }
  | Flow_aborted of { flow : int; cause : string }
  | Flow_rx of { flow : int; bytes : int }
  | Flow_retransmit of { flow : int; kind : string }
  | Switch_flushed of { switch : int }
  | Switch_rebuilt of { switch : int }
  | Packet_dropped of { link : int; cause : drop_cause }
  | Fault of { desc : string }
  | Sweep_task of {
      index : int;
      key : string;
      state : string;
      attempts : int;
      elapsed : float;
      detail : string;
    }

(* Kept as an alias for callers outside the library that render their
   own JSON (perfbench). *)
let json_escape = Json.escape

let event_to_json ~time ev =
  let fields =
    match ev with
    | Flow_admitted { flow; src; dst; size; deadline } ->
        Printf.sprintf
          "\"ev\":\"flow_admitted\",\"flow\":%d,\"src\":%d,\"dst\":%d,\"size\":%d%s"
          flow src dst size
          (match deadline with
          | Some d -> Printf.sprintf ",\"deadline\":%s" (Json.j_float d)
          | None -> "")
    | Flow_started { flow } -> Printf.sprintf "\"ev\":\"flow_started\",\"flow\":%d" flow
    | Flow_established { flow } ->
        Printf.sprintf "\"ev\":\"flow_established\",\"flow\":%d" flow
    | Flow_paused { flow; by; preempted_by } ->
        Printf.sprintf "\"ev\":\"flow_paused\",\"flow\":%d,\"by\":%d%s" flow by
          (match preempted_by with
          | Some p -> Printf.sprintf ",\"preempted_by\":%d" p
          | None -> "")
    | Flow_resumed { flow; rate } ->
        Printf.sprintf "\"ev\":\"flow_resumed\",\"flow\":%d,\"rate\":%s" flow
          (Json.j_float rate)
    | Flow_rate_set { flow; rate } ->
        Printf.sprintf "\"ev\":\"flow_rate_set\",\"flow\":%d,\"rate\":%s" flow
          (Json.j_float rate)
    | Flow_completed { flow; fct } ->
        Printf.sprintf "\"ev\":\"flow_completed\",\"flow\":%d,\"fct\":%s" flow
          (Json.j_float fct)
    | Flow_terminated { flow } ->
        Printf.sprintf "\"ev\":\"flow_terminated\",\"flow\":%d" flow
    | Flow_aborted { flow; cause } ->
        Printf.sprintf "\"ev\":\"flow_aborted\",\"flow\":%d,\"cause\":\"%s\"" flow
          (Json.escape cause)
    | Flow_rx { flow; bytes } ->
        Printf.sprintf "\"ev\":\"flow_rx\",\"flow\":%d,\"bytes\":%d" flow bytes
    | Flow_retransmit { flow; kind } ->
        Printf.sprintf "\"ev\":\"flow_retransmit\",\"flow\":%d,\"kind\":\"%s\""
          flow (Json.escape kind)
    | Switch_flushed { switch } ->
        Printf.sprintf "\"ev\":\"switch_flushed\",\"switch\":%d" switch
    | Switch_rebuilt { switch } ->
        Printf.sprintf "\"ev\":\"switch_rebuilt\",\"switch\":%d" switch
    | Packet_dropped { link; cause } ->
        Printf.sprintf "\"ev\":\"packet_dropped\",\"link\":%d,\"cause\":\"%s\""
          link (drop_cause_name cause)
    | Fault { desc } ->
        Printf.sprintf "\"ev\":\"fault\",\"desc\":\"%s\"" (Json.escape desc)
    | Sweep_task { index; key; state; attempts; elapsed; detail } ->
        Printf.sprintf
          "\"ev\":\"sweep_task\",\"slot\":%d,\"key\":\"%s\",\"state\":\"%s\",\
           \"attempts\":%d,\"elapsed\":%s%s"
          index (Json.escape key) (Json.escape state) attempts
          (Json.j_float elapsed)
          (if detail = "" then ""
           else Printf.sprintf ",\"detail\":\"%s\"" (Json.escape detail))
  in
  Printf.sprintf "{\"t\":%s,%s}" (Json.j_float time) fields

(* ------------------------------------------------------------------ *)
(* Parsing recorded JSONL back into events (offline replay): strict on
   every field an event needs — anything malformed is an [Error], never
   a guess. With the round-tripping float format, [event_of_json] is an
   exact inverse of [event_to_json]. *)

let drop_cause_of_name = function
  | "loss" -> Some Loss
  | "overflow" -> Some Overflow
  | "down" -> Some Link_down
  | "stale_route" -> Some Stale_route
  | _ -> None

let event_of_json line =
  match
    let fields = Json.obj (Json.parse line) in
    let int = Json.int fields
    and float = Json.float fields
    and str = Json.str fields in
    let fail fmt =
      Printf.ksprintf (fun msg -> raise (Json.Parse_error msg)) fmt
    in
    let time = float "t" in
    let ev =
      match str "ev" with
      | "flow_admitted" ->
          Flow_admitted
            {
              flow = int "flow";
              src = int "src";
              dst = int "dst";
              size = int "size";
              deadline = Json.float_opt fields "deadline";
            }
      | "flow_started" -> Flow_started { flow = int "flow" }
      | "flow_established" -> Flow_established { flow = int "flow" }
      | "flow_paused" ->
          Flow_paused
            {
              flow = int "flow";
              by = int "by";
              preempted_by = Json.int_opt fields "preempted_by";
            }
      | "flow_resumed" -> Flow_resumed { flow = int "flow"; rate = float "rate" }
      | "flow_rate_set" ->
          Flow_rate_set { flow = int "flow"; rate = float "rate" }
      | "flow_completed" ->
          Flow_completed { flow = int "flow"; fct = float "fct" }
      | "flow_terminated" -> Flow_terminated { flow = int "flow" }
      | "flow_aborted" -> Flow_aborted { flow = int "flow"; cause = str "cause" }
      | "flow_rx" -> Flow_rx { flow = int "flow"; bytes = int "bytes" }
      | "flow_retransmit" ->
          Flow_retransmit { flow = int "flow"; kind = str "kind" }
      | "switch_flushed" -> Switch_flushed { switch = int "switch" }
      | "switch_rebuilt" -> Switch_rebuilt { switch = int "switch" }
      | "packet_dropped" -> (
          match drop_cause_of_name (str "cause") with
          | Some cause -> Packet_dropped { link = int "link"; cause }
          | None -> fail "unknown drop cause %S" (str "cause"))
      | "fault" -> Fault { desc = str "desc" }
      | "sweep_task" ->
          Sweep_task
            {
              index = int "slot";
              key = str "key";
              state = str "state";
              attempts = int "attempts";
              elapsed = float "elapsed";
              detail = Json.str_default fields "detail" "";
            }
      | other -> fail "unknown event %S" other
    in
    (time, ev)
  with
  | ev -> Ok ev
  | exception Json.Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Sinks *)

type sink =
  | Memory of (float * event) list ref (* newest first *)
  | Jsonl of out_channel
  | Callback of (time:float -> event -> unit)

let memory () = Memory (ref [])

let memory_events = function
  | Memory r -> List.rev !r
  | Jsonl _ | Callback _ ->
      invalid_arg "Trace.memory_events: not a memory sink"

let jsonl chan = Jsonl chan
let callback f = Callback f

let sink_emit sink ~time ev =
  match sink with
  | Memory r -> r := (time, ev) :: !r
  | Jsonl chan ->
      output_string chan (event_to_json ~time ev);
      output_char chan '\n';
      flush chan
  | Callback f -> f ~time ev

(* ------------------------------------------------------------------ *)
(* The bus *)

type t =
  | Null
  | Bus of {
      clock : unit -> float;
      sinks : sink list;
      mutable emitted : int;
    }

let null = Null

let create ~clock ~sinks =
  match sinks with [] -> Null | _ -> Bus { clock; sinks; emitted = 0 }

let active = function Null -> false | Bus _ -> true

let emit t ev =
  match t with
  | Null -> ()
  | Bus b ->
      let time = b.clock () in
      b.emitted <- b.emitted + 1;
      List.iter (fun s -> sink_emit s ~time ev) b.sinks

let events_seen = function Null -> 0 | Bus b -> b.emitted
