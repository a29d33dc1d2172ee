(** Semantics of RETURN and WITH: projection, aliasing, aggregation with
    implicit grouping (non-aggregate items are the grouping keys),
    DISTINCT, ORDER BY, SKIP and LIMIT, and the WITH ... WHERE filter.

    Aggregation is a single pass of accumulators: each aggregate node of
    the items and of ORDER BY is compiled to a slot, every input row
    updates its group's slots, and the items are evaluated once per
    group with each aggregate node replaced by its finalised value. *)

open Cypher_graph
open Cypher_table

(** An aggregating projection being folded, one input row at a time. *)
type aggregation

(** [aggregation config g ~columns proj] starts folding [proj] over
    input rows with the given [columns], or is [None] when [proj] does
    not aggregate. *)
val aggregation :
  Config.t -> Graph.t -> columns:string list -> Cypher_ast.Ast.projection ->
  aggregation option

(** Whether the aggregation looks at its input rows at all.  When it
    does not — one global group of [count( * )]s — the producer may
    feed row counts through {!add_count} instead of rows. *)
val reads_rows : aggregation -> bool

(** [add agg row] folds one input row into its group's accumulators. *)
val add : aggregation -> Record.t -> unit

(** [add_count agg n] folds [n] rows into an aggregation that does not
    {!reads_rows}. *)
val add_count : aggregation -> int -> unit

(** [finish agg] is the projection's output over the rows folded in. *)
val finish : aggregation -> Graph.t * Table.t

(** [run config (g, t) proj] is [[RETURN/WITH proj]](g, t). *)
val run :
  Config.t -> Graph.t * Table.t -> Cypher_ast.Ast.projection ->
  Graph.t * Table.t
