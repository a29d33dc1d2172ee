(** Semantics of the CREATE clause (Section 8.2).

    For each record of the driving table, the patterns are instantiated:
    node positions whose variable is already bound reuse the bound node
    (and may then carry no labels or properties in the pattern); all
    other node positions and every relationship position create fresh
    entities.  CREATE never reads what it writes, so record order cannot
    influence the result and the clause behaves identically under both
    regimes. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast

(** [create_row config g row patterns] instantiates the pattern tuple
    once, for a single record; used by legacy MERGE's create branch. *)
val create_row :
  Config.t ->
  Graph.t -> Record.t -> pattern list -> Graph.t * Record.t

(** [run config (g, t) patterns] is [[CREATE π]](G, T). *)
val run :
  Config.t ->
  Graph.t * Table.t -> pattern list -> Graph.t * Table.t
