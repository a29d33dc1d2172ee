(** Semantics of DELETE and DETACH DELETE.

    Legacy (Cypher 9): entities are removed one record at a time; the
    graph may pass through illegal states with dangling relationships,
    validity being checked only at the end of the statement (Neo4j's
    commit-time check).  References to deleted entities stay in the
    driving table (the "empty node" of Section 4.2).

    Revised (Section 7): all entities to delete are collected against
    the input graph; a plain DELETE fails with {!Errors.Delete_dangling}
    if relationships would be left dangling, DETACH DELETE adds every
    attached relationship; all collected entities are removed at once
    and every table reference to them is replaced by null. *)

open Cypher_graph
open Cypher_table

val run :
  Config.t ->
  Graph.t * Table.t -> detach:bool -> Cypher_ast.Ast.expr list ->
  Graph.t * Table.t
