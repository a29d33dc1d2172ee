(** Construction of evaluation contexts by the engine.

    Centralises two pieces of plumbing every clause needs: the query
    parameters, and the *pattern oracle* — the callback that lets the
    evaluator decide pattern predicates such as [exists((a)-[:T]->(b))]
    without depending on the matcher (the matcher sits above the
    evaluator in the library stack, so the dependency is inverted by
    injection here). *)

open Cypher_graph
open Cypher_table
module Ctx = Cypher_eval.Ctx
module Matcher = Cypher_matcher.Matcher

let match_mode_of config =
  match config.Config.match_mode with
  | Config.Isomorphic -> Matcher.Iso
  | Config.Homomorphic -> Matcher.Homo

let planner_on config =
  match config.Config.planner with Config.On -> true | Config.Off -> false

(** [ctx config graph row] is the evaluation context for one record,
    with parameters and the pattern oracle installed. *)
let ctx (config : Config.t) (graph : Graph.t) (row : Record.t) : Ctx.t =
  let pattern_oracle c patterns =
    Matcher.match_patterns ~mode:(match_mode_of config)
      ~planner:(planner_on config) c patterns
  in
  let shortest_oracle c ~all p = Matcher.shortest_paths c ~all p in
  Ctx.make ~params:config.Config.params ~pattern_oracle ~shortest_oracle graph
    row
