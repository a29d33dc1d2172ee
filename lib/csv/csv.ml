(** CSV substrate.

    The paper motivates MERGE by bulk import: "a graph database may be
    initially populated by importing data from a relational database or
    a CSV file" (Section 6), and Example 3's assumption of a
    pre-populated driving table "reflects the way in which a graph
    database may be initially populated".  This module provides that
    import path: an RFC-4180-style reader and conversion of rows to
    driving tables, with automatic typing (integers, floats, booleans,
    null for empty fields). *)

open Cypher_graph
open Cypher_table

type error = { message : string; line : int }

let error_to_string e = Printf.sprintf "CSV error at line %d: %s" e.line e.message

exception Csv_error of error

(** [parse_numbered src] splits CSV text into rows of raw string
    fields, each paired with the 1-based line its first field starts on
    (quoted fields may span lines, so row index and line number
    diverge).  Handles quoted fields (with embedded commas, newlines and
    doubled quotes) and both LF and CRLF line endings. *)
let parse_numbered src : (int * string list) list =
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
    (* the terminating newline was already counted, so [line] is where
       the next row starts *)
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
      (* report the line the quote opened on, not the line the scan for
         a closing quote ran out of input at — the opening quote is
         where the malformation is *)
      raise
        (Csv_error
           {
             message =
               Printf.sprintf
                 "unterminated quoted field (quote opened at line %d)"
                 open_line;
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

(** [parse_string src] is {!parse_numbered} without the line numbers. *)
let parse_string src : string list list = List.map snd (parse_numbered src)

(* a first byte no number, boolean or null starts with: a letter, but
   none of those that begin nan, inf(inity), true, false and null *)
let starts_no_literal = function
  | 'n' | 'N' | 'i' | 'I' | 't' | 'T' | 'f' | 'F' -> false
  | 'a' .. 'z' | 'A' .. 'Z' -> true
  | _ -> false

(** Types a raw field: empty → null; integer / float / boolean literals
    are recognised; anything else is a string.  A field that starts with
    a letter no literal starts with (names, cities) is a string at once,
    without trying the parsers. *)
let type_field s : Value.t =
  if s = "" then Value.Null
  else if starts_no_literal s.[0] then Value.String s
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

(** [table_of_string ~typed src] reads CSV text whose first row is the
    header and produces a driving table (one column per header field).
    With [typed = false] all fields stay strings (empty still null). *)
let table_of_string ?(typed = true) src : Table.t =
  match parse_string src with
  | [] -> Table.unit
  | header :: rows ->
      let convert s =
        if typed then type_field s
        else if s = "" then Value.Null
        else Value.String s
      in
      let tab = Slots.of_names header in
      let to_record i fields =
        if List.length fields <> List.length header then
          raise
            (Csv_error
               {
                 message =
                   Printf.sprintf "row has %d fields, header has %d"
                     (List.length fields) (List.length header);
                 line = i + 2;
               })
        else begin
          (* a repeated header name keeps its last field *)
          let cells = Array.make (Slots.width tab) Slots.absent in
          List.iter2
            (fun k v -> cells.(Slots.index tab k) <- convert v)
            header fields;
          Record.of_slots tab cells
        end
      in
      Table.make header (List.mapi to_record rows)

let table_of_file ?typed path : Table.t =
  let ic = open_in path in
  let content =
    (* the channel must not leak when reading (or the length probe)
       raises — e.g. the file shrinking underneath us *)
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  table_of_string ?typed content

(** [to_string table] renders a driving table back to CSV (strings are
    quoted when needed; null becomes the empty field). *)
let to_string (t : Table.t) : string =
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let field = function
    | Value.Null -> ""
    | Value.String s -> quote s
    | v -> quote (Value.to_string v)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map quote (Table.columns t)));
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      let cells =
        List.map (fun c -> field (Record.find r c)) (Table.columns t)
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n')
    (Table.rows t);
  Buffer.contents buf
