(** Construction of evaluation contexts by the engine.

    Centralises the plumbing every clause needs: query parameters and
    the oracles that let the evaluator answer pattern predicates,
    pattern comprehensions and shortestPath without depending on the
    matcher (the matcher sits above the evaluator in the library stack,
    so the dependency is inverted by injection here). *)

open Cypher_graph
open Cypher_table

(** The matcher-level regime selected by the configuration. *)
val match_mode_of : Config.t -> Cypher_matcher.Matcher.mode

(** Whether the configuration enables cost-guided match planning. *)
val planner_on : Config.t -> bool

(** [ctx config graph row] is the evaluation context for one record,
    with parameters and the oracles installed. *)
val ctx : Config.t -> Graph.t -> Record.t -> Cypher_eval.Ctx.t
