(** CSV substrate.

    The paper motivates MERGE by bulk import: "a graph database may be
    initially populated by importing data from a relational database or
    a CSV file" (Section 6).  This module provides that import path: an
    RFC-4180-style reader that hands each row over as soon as it is
    parsed, the header and width check every importer shares, and
    conversion of rows to driving tables, with automatic typing
    (integers, floats, booleans, null for empty fields). *)

open Cypher_graph
open Cypher_table

type error = { message : string; line : int }

val error_to_string : error -> string

exception Csv_error of error

(** [fold f init src] splits CSV text into rows of raw string fields
    and calls [f line fields acc] on each row as soon as it is parsed,
    in file order; [line] is the 1-based line the row's first field
    starts on (quoted fields may span lines, so row index and line
    number diverge).  Handles quoted fields (with embedded commas,
    newlines, CRLF and doubled quotes) and both LF and CRLF line
    endings; the last row needs no line ending, and a final line ending
    adds no empty row.
    @raise Csv_error on malformed input, after [f] has seen every row
    before the fault; an unterminated quoted field at end of input
    reports the line its opening quote is on. *)
val fold : (int -> string array -> 'a -> 'a) -> 'a -> string -> 'a

(** [parse_string src] is every row of [src] in order, without the line
    numbers.  @raise Csv_error like {!fold}. *)
val parse_string : string -> string list list

(** [fold_table header init src] is {!fold} over CSV text whose first
    row is the header.  [header line names] is called on that row and
    returns the function each later row goes to; a later row whose
    width differs from the header's raises [Csv_error] naming the line
    the row starts on.  Returns the header with the final state, or
    [None] when [src] has no row. *)
val fold_table :
  (int -> string array -> int -> string array -> 'a -> 'a) ->
  'a ->
  string ->
  (string array * 'a) option

(** Types a raw field: empty or [null] → null; integer / float /
    boolean literals are recognised; anything else is a string. *)
val type_field : string -> Value.t

(** [table_of_string src] reads CSV text whose first row is the header
    and produces a driving table (one column per header field).
    @raise Csv_error on malformed input and on ragged rows. *)
val table_of_string : string -> Table.t

(** [table_of_file path] is {!table_of_string} of the file's bytes.
    @raise Sys_error when the file cannot be read. *)
val table_of_file : string -> Table.t
