(** CSV substrate.

    The paper motivates MERGE by bulk import: "a graph database may be
    initially populated by importing data from a relational database or
    a CSV file" (Section 6), and Example 3's assumption of a
    pre-populated driving table "reflects the way in which a graph
    database may be initially populated".  This module provides that
    import path: an RFC-4180-style reader that hands each row over as
    soon as it is parsed, the header and width check every importer
    shares, and conversion of rows to driving tables, with automatic
    typing (integers, floats, booleans, null for empty fields).  No
    importer holds the rows of a file: each folds over them. *)

open Cypher_graph
open Cypher_table

type error = { message : string; line : int }

let error_to_string e = Printf.sprintf "CSV error at line %d: %s" e.line e.message

exception Csv_error of error

(** [fold f init src] splits CSV text into rows of raw string fields
    and hands each row to [f] as soon as it ends, with the 1-based line
    its first field starts on (quoted fields may span lines, so row
    index and line number diverge).  Handles quoted fields (with
    embedded commas, newlines and doubled quotes) and both LF and CRLF
    line endings. *)
let fold f init src =
  let n = String.length src in
  let buf = Buffer.create 32 in
  (* the current row's fields, in the first [width] cells *)
  let cells = ref (Array.make 16 "") and width = ref 0 in
  let acc = ref init in
  let line = ref 1 in
  let row_line = ref 1 in
  let flush_field () =
    if !width = Array.length !cells then cells := Array.append !cells (Array.make !width "");
    !cells.(!width) <- Buffer.contents buf;
    incr width;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    let fields = Array.sub !cells 0 !width in
    width := 0;
    acc := f !row_line fields !acc;
    (* the terminating newline was already counted, so [line] is where
       the next row starts *)
    row_line := !line
  in
  let rec plain i =
    if i < n then
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
  (* the scan ended outside quotes, so a final newline ended a row; any
     other final byte, a closing quote included, belongs to a last row
     with no line ending *)
  if n > 0 && src.[n - 1] <> '\n' then flush_row ();
  !acc

(** [parse_string src] is every row of [src], without the line numbers. *)
let parse_string src : string list list =
  List.rev (fold (fun _ fields rows -> Array.to_list fields :: rows) [] src)

(** [fold_table header init src] folds over CSV text whose first row is
    the header: [header line names] returns the function every later
    row goes to, with its line, once its width is the header's. *)
let fold_table header init src =
  let names = ref None and row = ref (fun _ _ acc -> acc) in
  let acc =
    fold
      (fun line fields acc ->
        match !names with
        | None ->
            names := Some fields;
            row := header line fields;
            acc
        | Some names ->
            let n = Array.length fields and width = Array.length names in
            if n <> width then
              raise
                (Csv_error
                   { message = Printf.sprintf "row has %d fields, header has %d" n width; line });
            !row line fields acc)
      init src
  in
  Option.map (fun names -> (names, acc)) !names

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

(** [table_of_string src] reads CSV text whose first row is the header
    and produces a driving table (one column per header field). *)
let table_of_string src : Table.t =
  let record _ names =
    let tab = Slots.of_names (Array.to_list names) in
    let slots = Array.map (Slots.index tab) names in
    fun _ fields rows ->
      (* a repeated header name keeps its last field *)
      let cells = Array.make (Slots.width tab) Slots.absent in
      Array.iteri (fun i v -> cells.(slots.(i)) <- type_field v) fields;
      Record.of_slots tab cells :: rows
  in
  match fold_table record [] src with
  | None -> Table.unit
  | Some (names, rows) -> Table.make_rev (Array.to_list names) rows

let table_of_file path : Table.t =
  let read ic = really_input_string ic (in_channel_length ic) in
  table_of_string (In_channel.with_open_bin path read)
