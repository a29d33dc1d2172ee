(** Recursive-descent parser for Cypher.

    Parses the union of the Cypher 9 grammar (Figures 2–5) and the
    revised grammar (Figure 10); dialect-specific restrictions are
    enforced afterwards by {!Cypher_ast.Validate}.  In addition to
    [MERGE ALL] and [MERGE SAME], the experimental spellings
    [MERGE GROUPING], [MERGE WEAK] and [MERGE COLLAPSE] are accepted for
    the remaining Section 6 proposals. *)

type error = { message : string; line : int; col : int }

val error_to_string : error -> string

(** [parse_string src] parses one query (a trailing [;] is allowed). *)
val parse_string : string -> (Cypher_ast.Ast.query, error) result

(** Statement prefix: [EXPLAIN] renders the execution plan without
    running the statement; [PROFILE] runs it and reports per-clause row
    counts and wall-time alongside the plan. *)
type prefix = Plain | Explain | Profile

(** [parse_statement_params src] parses one statement, recognising an
    optional [EXPLAIN] / [PROFILE] prefix (a trailing [;] is allowed),
    and lists the [$name] parameters it references, each with the
    (line, column) of its first occurrence, in first-occurrence order. *)
val parse_statement_params :
  string ->
  (prefix * Cypher_ast.Ast.query * (string * (int * int)) list, error) result

(** [parse_program src] parses a [;]-separated sequence of queries. *)
val parse_program : string -> (Cypher_ast.Ast.query list, error) result

(** [parse_statements src] parses a [;]-separated sequence of
    statements, each with an optional [EXPLAIN] / [PROFILE] prefix. *)
val parse_statements :
  string -> ((prefix * Cypher_ast.Ast.query) list, error) result

(** [parse_expr_string src] parses a standalone expression. *)
val parse_expr_string : string -> (Cypher_ast.Ast.expr, error) result
