(** Pattern matching: the relation (p, G, u) ⊨ π of Section 8.1.

    Matching extends a record (the assignment u) with bindings for the
    pattern's variables, producing every extension that embeds the
    pattern into the graph.

    Property predicates in patterns use ternary equality, so a [null]
    property value in a pattern never matches (Example 5's discipline). *)

open Cypher_table
open Cypher_ast.Ast

(** Which embeddings count as matches.  [Iso] is Cypher's relationship
    isomorphism: distinct relationship patterns bind distinct
    relationships (Section 2).  [Homo] allows a relationship to be bound
    by several pattern positions — the homomorphism-based regime the
    paper plans for later Cypher versions (Section 6, Example 7).
    Variable-length steps keep their walks edge-distinct under both
    regimes ("suitable restrictions to guarantee finite outputs"). *)
type mode = Iso | Homo

(** What a pattern-tuple fold hands its consumer per embedding: the
    result row, or only a tick — the counting leaf for a consumer that
    reads no column, which then builds no row at all. *)
type 'a sink = Rows of (Record.t -> 'a -> 'a) | Tally of ('a -> 'a)

(** [fold_patterns ?mode ?planner ?plans ctx patterns sink acc] folds
    [sink] over every extension of the context row that embeds every
    pattern, without building a list; under the default [Iso] mode
    relationship isomorphism is enforced across the whole pattern
    tuple.  [planner] (default off) enables cost-guided anchor selection
    and hop orientation (see {!Plan}); the embeddings are the same
    either way, possibly in a different order.

    [plans] optionally supplies one precomputed plan per pattern
    (hoisted out of the per-row loop by the engine — plan choice depends
    only on variable boundness and graph statistics, both uniform across
    one driving table); [Some None] entries run naive enumeration, and
    missing entries fall back to per-row planning. *)
val fold_patterns :
  ?mode:mode ->
  ?planner:bool ->
  ?plans:Plan.t option list ->
  Cypher_eval.Ctx.t ->
  pattern list ->
  'a sink ->
  'a ->
  'a

(** [match_patterns ?mode ?planner ?plans ctx patterns] is the list of
    embeddings {!fold_patterns} enumerates, in its order. *)
val match_patterns :
  ?mode:mode ->
  ?planner:bool ->
  ?plans:Plan.t option list ->
  Cypher_eval.Ctx.t ->
  pattern list ->
  Record.t list

(** [shortest_paths ctx ~all pattern] evaluates
    [shortestPath((a)-[:T*]->(b))] (and [allShortestPaths]) between two
    *bound* endpoints by a bidirectional BFS over the relationships
    satisfying the single variable-length step.  A path exists iff the
    shortest distance [d] satisfies [lo <= d <= hi].  Returns a
    {!Cypher_graph.Value.Path} — the shortest walk whose relationship-id
    sequence is lexicographically least — or, under [~all:true], the
    list of every shortest walk in that order; null (or the empty list)
    when no path exists. *)
val shortest_paths :
  Cypher_eval.Ctx.t -> all:bool -> pattern -> Cypher_graph.Value.t
