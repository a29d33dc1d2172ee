(** A naive reference implementation of MERGE ALL and MERGE SAME,
    transcribed as directly as possible from the formal definitions of
    Section 8.2 — used for differential testing of the production
    implementation in [cypher_core].

    Instantiation is independent code; the collapsibility quotient is
    computed by pairwise application of Definitions 1 and 2 with
    union-find, not by canonical-key grouping. *)

open Cypher_graph
open Cypher_table

(** [[MERGE ALL π]](G, T), per the displayed equation of Section 8.2. *)
val merge_all :
  Graph.t -> Table.t -> Cypher_ast.Ast.pattern list -> Graph.t * Table.t

(** [[MERGE SAME π]](G, T): the quotient of the MERGE ALL result. *)
val merge_same :
  Graph.t -> Table.t -> Cypher_ast.Ast.pattern list -> Graph.t * Table.t

(** [shortest_paths ctx ~all pattern] is [shortestPath] /
    [allShortestPaths] by a one-sided BFS from the source that keeps
    every predecessor on a shortest walk and then builds all shortest
    walks — the search {!Cypher_matcher.Matcher.shortest_paths} replaced,
    kept as its differential reference.  Same answer up to the choice
    among several shortest walks. *)
val shortest_paths :
  Cypher_eval.Ctx.t -> all:bool -> Cypher_ast.Ast.pattern -> Value.t
