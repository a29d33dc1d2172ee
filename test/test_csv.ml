(** The CSV substrate: the row fold against a reference parser,
    typing, driving-table conversion. *)

open Cypher_graph
open Cypher_table
open Cypher_csv
open Test_util

(* the typing before its first-byte dispatch: every parser on every field *)
let reference_type_field s : Value.t =
  if s = "" then Value.Null
  else
    match int_of_string_opt s with
    | Some i -> Value.Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> (
            match String.lowercase_ascii s with
            | "true" -> Value.Bool true
            | "false" -> Value.Bool false
            | "null" -> Value.Null
            | _ -> Value.String s))

(* fields the parsers accept in unexpected ways, and words near the
   recognised ones *)
let typing_edge_cases =
  [ ""; " 1.5"; "1.5 "; "_1"; "1_000"; ".5"; "5."; "+5"; "-"; "-0"; "-0.0"; "1e5"; "e5"; "E5";
    "0x1F"; "0x1p3"; "0b101"; "0o17"; "0u5"; "inf"; "-inf"; "Inf"; "INFINITY"; "infinity";
    "infinit"; "nan"; "NaN"; "-nan"; "+nan"; "nan(1)"; "true"; "TRUE"; "True"; "truex"; "false";
    "FALSE"; "null"; "NULL"; "Null"; "nul"; "abc"; "x1"; "Nope"; "ilk"; "tea"; "fig"; "\t1";
    "\n"; "Zürich"; "9223372036854775807"; "4611686018427387904"; "-4611686018427387905" ]

let typing_property =
  let alphabet = "0123456789+-._ eExXpPbBoOuUnNaAiIfFtTlLrRsSyYzZ\t\xc3" in
  let field =
    QCheck.Gen.(
      frequency
        [ (3, string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1))) (int_bound 8));
          (1, string_size ~gen:printable (int_bound 8));
          (1, oneofl typing_edge_cases) ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"type_field equals trying every parser on every field"
       (QCheck.make ~print:(Printf.sprintf "%S") field)
       (fun s -> same_bits (reference_type_field s) (Csv.type_field s)))

(* the parser before it became a fold: it builds the whole row list,
   and drops a last row made of one empty quoted field when no line
   ending follows it *)
let reference_parse_numbered src : (int * string list) list =
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let line = ref 1 in
  let row_line = ref 1 in
  let n = String.length src in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := (!row_line, List.rev !fields) :: !rows;
    fields := [];
    row_line := !line
  in
  let rec plain i =
    if i >= n then (if !fields <> [] || Buffer.length buf > 0 then flush_row ())
    else
      match src.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1)
      | '\r' when i + 1 < n && src.[i + 1] = '\n' ->
          incr line;
          flush_row ();
          plain (i + 2)
      | '\n' ->
          incr line;
          flush_row ();
          plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted ~open_line:!line (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted ~open_line i =
    if i >= n then
      raise
        (Csv.Csv_error
           {
             message =
               Printf.sprintf "unterminated quoted field (quote opened at line %d)" open_line;
             line = open_line;
           })
    else
      match src.[i] with
      | '"' when i + 1 < n && src.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted ~open_line (i + 2)
      | '"' -> plain (i + 1)
      | '\n' ->
          incr line;
          Buffer.add_char buf '\n';
          quoted ~open_line (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted ~open_line (i + 1)
  in
  plain 0;
  List.rev !rows

let numbered src =
  match List.rev (Csv.fold (fun line fields rows -> (line, Array.to_list fields) :: rows) [] src) with
  | rows -> Ok rows
  | exception Csv.Csv_error e -> Error e

let fold_property =
  let alphabet = ",\"\n\rab01" in
  let input =
    QCheck.Gen.(
      map
        (fun s -> s ^ "\n")
        (string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1))) (int_bound 24)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000 ~name:"fold yields the reference parser's numbered rows"
       (QCheck.make ~print:(Printf.sprintf "%S") input)
       (fun src ->
         numbered src
         = match reference_parse_numbered src with
           | rows -> Ok rows
           | exception Csv.Csv_error e -> Error e))

let suite =
  [
    typing_property;
    fold_property;
    case "type_field equals trying every parser on its edge cases" (fun () ->
        List.iter
          (fun s ->
            if not (same_bits (reference_type_field s) (Csv.type_field s)) then
              Alcotest.failf "%S types as %s, not %s" s (Value.to_string (Csv.type_field s))
                (Value.to_string (reference_type_field s)))
          typing_edge_cases);
    case "basic parsing" (fun () ->
        Alcotest.(check (list (list string)))
          "rows"
          [ [ "a"; "b" ]; [ "1"; "2" ] ]
          (Csv.parse_string "a,b\n1,2\n"));
    case "quoted fields with commas, quotes and newlines" (fun () ->
        Alcotest.(check (list (list string)))
          "rows"
          [ [ "x,y"; "he said \"hi\""; "two\nlines" ] ]
          (Csv.parse_string "\"x,y\",\"he said \"\"hi\"\"\",\"two\nlines\"\n"));
    case "crlf line endings" (fun () ->
        Alcotest.(check (list (list string)))
          "rows" [ [ "a" ]; [ "b" ] ] (Csv.parse_string "a\r\nb\r\n"));
    case "missing trailing newline" (fun () ->
        Alcotest.(check (list (list string)))
          "rows" [ [ "a" ]; [ "b" ] ] (Csv.parse_string "a\nb"));
    case "field typing" (fun () ->
        check_value "int" (vint 42) (Csv.type_field "42");
        check_value "float" (Value.Float 2.5) (Csv.type_field "2.5");
        check_value "bool" (vbool true) (Csv.type_field "true");
        check_value "null" vnull (Csv.type_field "");
        check_value "explicit null" vnull (Csv.type_field "null");
        check_value "string" (vstr "abc") (Csv.type_field "abc"));
    case "table conversion with header" (fun () ->
        let t = Csv.table_of_string "cid,pid\n98,125\n99,\n" in
        Alcotest.(check (list string)) "columns" [ "cid"; "pid" ] (Table.columns t);
        check_rows "two rows" 2 t;
        let second = List.nth (Table.rows t) 1 in
        check_value "empty is null" vnull (Record.find second "pid"));
    case "ragged rows are rejected" (fun () ->
        match Csv.table_of_string "a,b\n1\n" with
        | exception Csv.Csv_error _ -> ()
        | _ -> Alcotest.fail "should have raised");
    case "a ragged row reports the line it starts on" (fun () ->
        (* the quoted field spans lines 2-3, so the short row starts on
           line 4, not at its row index + 2 *)
        match Csv.table_of_string "a,b\n\"x\ny\",1\n2\n" with
        | exception Csv.Csv_error e ->
            Alcotest.(check int) "line" 4 e.Csv.line;
            Alcotest.(check string) "message" "row has 1 fields, header has 2" e.Csv.message
        | _ -> Alcotest.fail "should have raised");
    case "unterminated quote is an error" (fun () ->
        match Csv.parse_string "\"oops" with
        | exception Csv.Csv_error _ -> ()
        | _ -> Alcotest.fail "should have raised");
    case "unterminated quote reports its opening line" (fun () ->
        (* the quote opens on line 3; the scan then swallows the rest of
           the input (including more newlines) looking for the close *)
        match Csv.parse_string "a,b\n1,2\n3,\"oops\nstill open\n" with
        | exception Csv.Csv_error e ->
            Alcotest.(check int) "line" 3 e.Csv.line;
            let contains ~sub s =
              let n = String.length sub and m = String.length s in
              let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "message names the line" true
              (contains ~sub:"line 3" e.Csv.message)
        | rows ->
            Alcotest.failf "should have raised, got %d rows" (List.length rows));
    case "crlf inside quotes is preserved verbatim" (fun () ->
        Alcotest.(check (list (list string)))
          "rows"
          [ [ "a\r\nb"; "x" ]; [ "1"; "2" ] ]
          (Csv.parse_string "\"a\r\nb\",x\r\n1,2\r\n"));
    case "trailing newline does not add an empty row" (fun () ->
        Alcotest.(check (list (list string)))
          "lf" [ [ "a" ]; [ "b" ] ] (Csv.parse_string "a\nb\n");
        Alcotest.(check (list (list string)))
          "crlf" [ [ "a" ]; [ "b" ] ] (Csv.parse_string "a\r\nb\r\n");
        Alcotest.(check (list (list string)))
          "none" [ [ "a" ]; [ "b" ] ] (Csv.parse_string "a\r\nb");
        (* a quoted field ending exactly at a trailing CRLF *)
        Alcotest.(check (list (list string)))
          "quoted before crlf" [ [ "a" ] ] (Csv.parse_string "\"a\"\r\n"));
    case "a last row of one empty quoted field needs no line ending" (fun () ->
        Alcotest.(check (list (list string)))
          "no newline" [ [ "a" ]; [ "" ] ] (Csv.parse_string "a\n\"\"");
        Alcotest.(check (list (list string)))
          "newline" [ [ "a" ]; [ "" ] ] (Csv.parse_string "a\n\"\"\n");
        Alcotest.(check (list (list string)))
          "alone" [ [ "" ] ] (Csv.parse_string "\"\""));
  ]

let file_tests =
  [
    case "table_of_file reads from disk" (fun () ->
        let path = Filename.temp_file "cypher_csv" ".csv" in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc "a,b\n1,x\n2,\n");
        let t = Csv.table_of_file path in
        Sys.remove path;
        check_rows "rows" 2 t;
        Alcotest.(check (list string)) "columns" [ "a"; "b" ] (Table.columns t));
    case "example orders.csv loads" (fun () ->
        let t = Csv.table_of_file "../examples/data/orders.csv" in
        check_rows "rows" 12 t;
        Alcotest.(check (list string)) "columns" [ "cid"; "pid"; "date" ] (Table.columns t));
  ]

let suite = suite @ file_tests
