(** CSV substrate.

    The paper motivates MERGE by bulk import: "a graph database may be
    initially populated by importing data from a relational database or
    a CSV file" (Section 6).  This module provides that import path: an
    RFC-4180-style reader and conversion of rows to driving tables, with
    automatic typing (integers, floats, booleans, null for empty
    fields). *)

open Cypher_graph
open Cypher_table

type error = { message : string; line : int }

val error_to_string : error -> string

exception Csv_error of error

(** [parse_string src] splits CSV text into rows of raw string fields.
    Handles quoted fields (with embedded commas, newlines, CRLF and
    doubled quotes) and both LF and CRLF line endings.
    @raise Csv_error on malformed input; an unterminated quoted field at
    end of input reports the line its opening quote is on. *)
val parse_string : string -> string list list

(** [parse_numbered src] is {!parse_string} with each row paired with
    the 1-based line its first field starts on (quoted fields may span
    lines, so row index and line number diverge) — the substrate for
    import-error reporting that points at the offending file line.
    @raise Csv_error like {!parse_string}. *)
val parse_numbered : string -> (int * string list) list

(** Types a raw field: empty or [null] → null; integer / float /
    boolean literals are recognised; anything else is a string. *)
val type_field : string -> Value.t

(** [table_of_string ~typed src] reads CSV text whose first row is the
    header and produces a driving table (one column per header field).
    With [typed = false] all fields stay strings (empty still null).
    @raise Csv_error on ragged rows. *)
val table_of_string : ?typed:bool -> string -> Table.t

val table_of_file : ?typed:bool -> string -> Table.t

(** [to_string table] renders a driving table back to CSV (strings are
    quoted when needed; null becomes the empty field). *)
val to_string : Table.t -> string
