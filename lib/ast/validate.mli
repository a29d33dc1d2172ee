(** Static validation of queries against a dialect.

    The same AST serves three dialects:

    - {!Cypher9}: the grammar of Figures 2–5.  Update patterns are
      restricted (CREATE takes tuples of *directed* patterns, MERGE a
      *single*, possibly undirected pattern), reading clauses may not
      follow update clauses without an intervening WITH (Section 4.4),
      and [MERGE ALL]/[MERGE SAME] do not exist.
    - {!Revised}: the streamlined grammar of Figure 10.  Clauses compose
      freely, CREATE and MERGE uniformly take tuples of directed
      patterns, and plain [MERGE] is no longer allowed (Section 7).
    - {!Permissive}: anything the parser accepts, including the
      experimental [MERGE GROUPING]/[WEAK]/[COLLAPSE] spellings for the
      other Section 6 proposals. *)

type dialect = Cypher9 | Revised | Permissive

type error = { message : string }

(** [scope_after scope c] is the scope after clause [c]: patterns and
    UNWIND add their variables, a projection without [*] resets it to
    its output columns.  Only boundness is tracked. *)
val scope_after : string list -> Ast.clause -> string list

(** [validate dialect q] checks [q] against [dialect]'s restrictions. *)
val validate : dialect -> Ast.query -> (Ast.query, string) result
