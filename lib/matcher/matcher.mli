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

(** [match_patterns ?mode ?planner ?plans ctx patterns] computes all
    extensions of the context row that embed every pattern; under the
    default [Iso] mode relationship isomorphism is enforced across the
    whole pattern tuple.  [planner] (default off) enables cost-guided
    anchor selection and hop orientation (see {!Plan}); the result rows
    are the same either way, possibly in a different order.

    [plans] optionally supplies one precomputed plan per pattern
    (hoisted out of the per-row loop by the engine — plan choice depends
    only on variable boundness and graph statistics, both uniform across
    one driving table); [Some None] entries run naive enumeration, and
    missing entries fall back to per-row planning. *)
val match_patterns :
  ?mode:mode ->
  ?planner:bool ->
  ?plans:Plan.t option list ->
  Cypher_eval.Ctx.t ->
  pattern list ->
  Record.t list

(** [match_patterns_rev] is {!match_patterns} with the result rows in
    reverse traversal order — the accumulation order of the underlying
    fold.  The engine's single-row MATCH expansion consumes this
    directly and restores row order in the same pass that builds the
    result table ({!Cypher_table.Table.make_rev}), saving a full
    traversal of what may be a 10⁵-row list. *)
val match_patterns_rev :
  ?mode:mode ->
  ?planner:bool ->
  ?plans:Plan.t option list ->
  Cypher_eval.Ctx.t ->
  pattern list ->
  Record.t list

(** [match_patterns_natural ?mode ?planner ?plans ctx patterns] is the
    fully-inverted enumeration: a single planned pattern run in
    reversed traversal order with prepend accumulation, returning rows
    already in natural (forward) order — one list spine for the whole
    match, no final reversal.  The rows are complete slot rows over the
    invocation layout, so the engine may adopt them without a
    consistency projection ({!Cypher_table.Table.of_consistent}).
    [None] when the shape doesn't qualify (several patterns, no plan,
    property predicates, persistent backend); callers fall back to
    {!match_patterns_rev}. *)
val match_patterns_natural :
  ?mode:mode ->
  ?planner:bool ->
  ?plans:Plan.t option list ->
  Cypher_eval.Ctx.t ->
  pattern list ->
  Record.t list option

(** [count_patterns ?mode ?planner ?plans ctx patterns] is
    [List.length (match_patterns ...)] without materialising any row:
    embeddings are folded over and counted in place, in the same
    traversal order.  Used by the engine to fuse
    [MATCH ... RETURN count( * )] projections. *)
val count_patterns :
  ?mode:mode ->
  ?planner:bool ->
  ?plans:Plan.t option list ->
  Cypher_eval.Ctx.t ->
  pattern list ->
  int

(** [shortest_paths ctx ~all pattern] evaluates
    [shortestPath((a)-[:T*]->(b))] (and [allShortestPaths]): a BFS over
    relationships satisfying the single variable-length step, between
    two *bound* endpoints.  Returns a {!Cypher_graph.Value.Path} — or a
    list of paths under [~all:true]; null (or the empty list) when no
    path exists. *)
val shortest_paths :
  Cypher_eval.Ctx.t -> all:bool -> pattern -> Cypher_graph.Value.t
