(** EXPLAIN / PROFILE plan rendering: per top-level clause, the
    traversal order the planner picks ({!Cypher_matcher.Plan.describe})
    or the reason enumeration stays naive.  See explain.ml for the
    boundness-probing approximation. *)

open Cypher_graph

(** [render ?profiled config g q] renders the execution plan of [q]
    against the statistics of [g].  [profiled] only adds the header's
    note that clause times are exact. *)
val render :
  ?profiled:bool -> Config.t -> Graph.t -> Cypher_ast.Ast.query -> string
