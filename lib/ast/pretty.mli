(** Pretty-printing of the AST back to Cypher concrete syntax.

    The output re-parses to the same AST (a qcheck property in the test
    suite), which also makes it a convenient canonical form for
    diagnostics and the REPL. *)

open Ast

val pp_expr : Format.formatter -> expr -> unit
val pp_node_pat : Format.formatter -> node_pat -> unit
val pp_rel_pat : Format.formatter -> rel_pat -> unit
val pp_pattern : Format.formatter -> pattern -> unit
val pp_set_item : Format.formatter -> set_item -> unit
val pp_remove_item : Format.formatter -> remove_item -> unit

(** The concrete keyword of a merge mode (e.g. ["MERGE SAME"]). *)
val merge_keyword : merge_mode -> string

val pp_clause : Format.formatter -> clause -> unit
val pp_query : Format.formatter -> query -> unit
val query_to_string : query -> string
val expr_to_string : expr -> string
val clause_to_string : clause -> string
