(** Semantics of the SET clause.

    Legacy (Cypher 9): set items are applied one record at a time, one
    item at a time, each immediately visible to the next — which loses
    the simultaneous-assignment reading (Example 1) and silently
    resolves conflicting assignments by last-writer-wins (Example 2).

    Revised (Section 7): all expressions are first evaluated against the
    *input* graph for every record, accumulating the induced changes
    (propchanges / labchanges of Section 8.2); if two changes assign
    different values to the same property of the same entity the clause
    fails with {!Errors.Set_conflict}; otherwise all changes are applied
    in one atomic step. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast

(** Applies one set item to one record immediately (legacy semantics);
    also used by legacy MERGE's ON CREATE / ON MATCH subclauses. *)
val legacy_item :
  Config.t -> Graph.t -> Record.t -> set_item -> Graph.t

(** The two-phase atomic semantics, independent of [config.mode]; used
    by revised MERGE's ON CREATE / ON MATCH subclauses. *)
val run_atomic :
  Config.t ->
  Graph.t * Table.t -> set_item list -> Graph.t * Table.t

(** Dispatches on [config.mode]. *)
val run :
  Config.t ->
  Graph.t * Table.t -> set_item list -> Graph.t * Table.t
