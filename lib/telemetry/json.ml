(* Minimal JSON support for every artifact the simulator writes and
   reads back: traces, metrics, reports, checkpoints, fault and
   adversary plans, chaos reproducer cases. Emission stays hand-rolled
   sprintf at each call site; this module supplies the one string
   escaper and the exact float format plus a small recursive-descent
   reader that keeps number literals raw, so [float_of_string] returns
   the identical double and every codec is an exact inverse of its
   printer. Not a general-purpose JSON library: no streaming, whole
   value in memory, integers bounded by [int], ASCII-only [\u]. *)

(* Shortest decimal form that round-trips the exact double, so an
   offline replay of a recorded trace reproduces a live analysis byte
   for byte. Inputs are finite by construction, so inf/nan never
   appear. *)
let j_float x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s
  else
    let s = Printf.sprintf "%.16g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then input.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail "expected %c at byte %d" c !pos;
    advance ()
  in
  let scan_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          match peek () with
          | '"' | '\\' | '/' ->
              Buffer.add_char b (peek ());
              advance ();
              loop ()
          | 'n' -> Buffer.add_char b '\n'; advance (); loop ()
          | 'r' -> Buffer.add_char b '\r'; advance (); loop ()
          | 't' -> Buffer.add_char b '\t'; advance (); loop ()
          | 'b' -> Buffer.add_char b '\b'; advance (); loop ()
          | 'f' -> Buffer.add_char b '\012'; advance (); loop ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub input !pos 4 in
              if not (String.for_all is_hex hex) then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ hex) in
              pos := !pos + 4;
              (* Writers only ever escape control characters; reject
                 anything needing real UTF-8 encoding rather than
                 emitting mojibake. *)
              if code > 0x7f then fail "non-ASCII \\u escape unsupported";
              Buffer.add_char b (Char.chr code);
              loop ()
          | c -> fail "bad escape \\%c" c)
      | c when Char.code c < 0x20 ->
          fail "unescaped control byte 0x%02x at byte %d" (Char.code c) !pos
      | c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let scan_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char input.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number at byte %d" start;
    String.sub input start (!pos - start)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal at byte %d" !pos
  in
  (* Comma-separated [item]s after an opening bracket, up to [close]. *)
  let seq close item =
    advance ();
    skip_ws ();
    if peek () = close then begin advance (); [] end
    else begin
      let items = ref [] in
      let rec elems () =
        items := item () :: !items;
        skip_ws ();
        match peek () with
        | ',' -> advance (); elems ()
        | c when c = close -> advance ()
        | c -> fail "expected , or %c but got %c" close c
      in
      elems ();
      List.rev !items
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (scan_string ())
    | '{' ->
        Obj
          (seq '}' (fun () ->
               let key = scan_string () in
               expect ':';
               (key, value ())))
    | '[' -> Arr (seq ']' value)
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (scan_number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes at %d" !pos;
  v

(* ------------------------------------------------------------------ *)
(* Typed accessors: strict — a malformed or
   missing field is an error, never a guess. *)

let obj = function Obj fields -> fields | _ -> fail "expected object"
let arr = function Arr items -> items | _ -> fail "expected array"

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> fail "missing field %S" k

let str fields k =
  match field fields k with
  | Str s -> s
  | _ -> fail "field %S is not a string" k

let num fields k =
  match field fields k with
  | Num s -> s
  | _ -> fail "field %S is not a number" k

let bool fields k =
  match field fields k with
  | Bool b -> b
  | _ -> fail "field %S is not a boolean" k

let int fields k =
  let s = num fields k in
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "field %S is not an integer" k

let float fields k =
  let s = num fields k in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "field %S is not a float" k

(* Optional fields: absent is [None] (or the default), present must be
   well-typed. *)
let opt read fields k =
  if List.mem_assoc k fields then Some (read fields k) else None

let int_opt = opt int
let float_opt = opt float
let str_default fields k d = Option.value (opt str fields k) ~default:d
