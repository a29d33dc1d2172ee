(** Recursive-descent parser for Cypher.

    Parses the union of the Cypher 9 grammar (Figures 2–5) and the
    revised grammar (Figure 10); dialect-specific restrictions are
    enforced afterwards by {!Cypher_ast.Validate}.  In addition to
    [MERGE ALL] and [MERGE SAME], the experimental spellings
    [MERGE GROUPING], [MERGE WEAK] and [MERGE COLLAPSE] are accepted for
    the remaining Section 6 proposals.

    The engine compiles a statement only from the {!statement} triple
    that {!parse_statements} (or its one-statement case
    {!parse_statement_params}) yields: [Api.prepare] and
    [Api.run_program] both start there, so every statement gets the
    same up-front parameter check.  {!parse_string} returns a bare query
    for callers that inspect or rewrite the AST. *)

type error = { message : string; line : int; col : int }

val error_to_string : error -> string

(** [parse_string src] parses one query (a trailing [;] is allowed). *)
val parse_string : string -> (Cypher_ast.Ast.query, error) result

(** Statement prefix: [EXPLAIN] renders the execution plan without
    running the statement; [PROFILE] runs it and reports per-clause row
    counts and wall-time alongside the plan. *)
type prefix = Plain | Explain | Profile

(** One statement as it compiles: its prefix, its query, and the
    [$name] parameters it references, each with the (line, column) of
    its first occurrence in the source, in first-occurrence order. *)
type statement = prefix * Cypher_ast.Ast.query * (string * (int * int)) list

(** [parse_statements src] parses a [;]-separated sequence of
    statements, each with an optional [EXPLAIN] / [PROFILE] prefix and
    its own parameters, positioned in [src]. *)
val parse_statements : string -> (statement list, error) result

(** [parse_statement_params src] is {!parse_statements} of a source
    holding exactly one statement (a trailing [;] is allowed). *)
val parse_statement_params : string -> (statement, error) result

(** [statement_to_string s] prints [s]'s prefix and query: the text of
    one statement, which parses back to them. *)
val statement_to_string : statement -> string

(** [parse_expr_string src] parses a standalone expression. *)
val parse_expr_string : string -> (Cypher_ast.Ast.expr, error) result
