(** Semantics of the REMOVE clause (Section 8.2).

    Label and property removals cannot conflict — removing twice is the
    same as removing once — so the legacy and revised semantics
    coincide; changes are evaluated and applied from left to right. *)

open Cypher_graph
open Cypher_table

val run :
  Config.t ->
  Graph.t * Table.t -> Cypher_ast.Ast.remove_item list -> Graph.t * Table.t
