(* Tests for the shared JSON codec: the escaper's exact output, the
   reader's strictness on malformed input, its leniency on whitespace
   and unread fields, and escape/parse as exact inverses on any byte
   string. *)

module Json = Pdq_telemetry.Json

let test_escape_format () =
  (* The byte format every trace, report and checkpoint is written in:
     two-byte escapes for quote, backslash and newline, \u00XX for every
     other control byte, everything else verbatim. *)
  Alcotest.(check string) "escape"
    "a\\\"b\\\\c\\nd\\u0009e\\u000d\\u0001\xc3\xa9"
    (Json.escape "a\"b\\c\nd\te\r\001\xc3\xa9")

let test_rejects_malformed () =
  List.iter
    (fun (what, input) ->
      match Json.parse input with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s must be rejected: %S" what input)
    [
      ("trailing bytes", {|{"a":1} x|});
      ("raw tab in a string", "\"a\tb\"");
      ("raw newline in a key", "{\"a\nb\":1}");
      ("truncated \\u", {|"\u00"|});
      ("non-hex \\u", {|"\u00g1"|});
      ("non-ASCII \\u", {|"\u|} ^ {|00e9"|});
      ("missing comma", {|{"a":1 "b":2}|});
      ("missing comma in array", {|[1 2]|});
      ("bad literal", {|{"a":tru}|});
      ("unterminated string", {|"abc|});
      ("empty input", "");
    ]

let test_accepts_whitespace () =
  let fields =
    Json.obj (Json.parse " {\n \"a\" : 1 ,\t\"b\":[true, null, {}] } \n")
  in
  Alcotest.(check int) "a" 1 (Json.int fields "a");
  (* A field nobody reads may hold any type; the one read stays strict. *)
  Alcotest.(check bool) "b is an array" true
    (match Json.field fields "b" with Json.Arr _ -> true | _ -> false);
  Alcotest.check_raises "mistyped read field"
    (Json.Parse_error {|field "b" is not a number|})
    (fun () -> ignore (Json.int fields "b"))

let test_optional_fields () =
  let fields = Json.obj (Json.parse {|{"i":3,"f":0.5,"s":"x","b":false}|}) in
  Alcotest.(check (option int)) "int_opt present" (Some 3)
    (Json.int_opt fields "i");
  Alcotest.(check (option int)) "int_opt absent" None (Json.int_opt fields "j");
  Alcotest.(check (option (float 0.))) "float_opt" (Some 0.5)
    (Json.float_opt fields "f");
  Alcotest.(check string) "str_default present" "x"
    (Json.str_default fields "s" "d");
  Alcotest.(check string) "str_default absent" "d"
    (Json.str_default fields "t" "d");
  Alcotest.(check bool) "bool" false (Json.bool fields "b");
  Alcotest.check_raises "present but mistyped"
    (Json.Parse_error {|field "s" is not a number|})
    (fun () -> ignore (Json.int_opt fields "s"))

(* Any byte string survives escape-then-parse; control and special
   bytes are drawn often enough to matter. *)
let escape_roundtrip =
  let byte =
    QCheck.Gen.(
      frequency
        [
          (3, map Char.chr (int_bound 255));
          (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127'; '/' ]);
        ])
  in
  QCheck.Test.make ~name:"parse inverts escape on any byte string" ~count:500
    (QCheck.string_gen byte)
    (fun s -> Json.parse ("\"" ^ Json.escape s ^ "\"") = Json.Str s)

let suites =
  [
    ( "json",
      [
        Alcotest.test_case "escape format" `Quick test_escape_format;
        Alcotest.test_case "rejects malformed input" `Quick
          test_rejects_malformed;
        Alcotest.test_case "whitespace and unread fields" `Quick
          test_accepts_whitespace;
        Alcotest.test_case "optional fields" `Quick test_optional_fields;
        QCheck_alcotest.to_alcotest escape_roundtrip;
      ] );
  ]
