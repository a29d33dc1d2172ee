(** Evaluation context: the graph G and assignment u of [[e]]G,u, plus
    query parameters and (during projection) the finalised values of
    the current group's aggregates. *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_table

type t = {
  graph : Graph.t;
  row : Record.t;
  params : Value.t Smap.t;
  aggregate : (Cypher_ast.Ast.expr -> Value.t) option;
      (** [Some value_of] while evaluating the items of an aggregating
          projection for one group: [value_of] maps each aggregate node
          of the projection to its finalised value *)
  pattern_oracle : (t -> Cypher_ast.Ast.pattern list -> Record.t list) option;
      (** computes the embeddings of a pattern tuple extending the
          current record — the basis for pattern predicates such as
          [exists((a)-[:T]->(b))] and for pattern comprehensions;
          injected by the engine so the evaluator does not depend on
          the matcher *)
  shortest_oracle :
    (t -> all:bool -> Cypher_ast.Ast.pattern -> Value.t) option;
      (** computes shortestPath / allShortestPaths between bound
          endpoints; injected by the engine *)
}

let make ?(params = Smap.empty) ?pattern_oracle ?shortest_oracle graph row =
  { graph; row; params; aggregate = None; pattern_oracle; shortest_oracle }

let with_row ctx row = { ctx with row }
let with_aggregate ctx value_of = { ctx with aggregate = Some value_of }

(** Evaluation failure (type errors, unknown variables, division by
    zero, …).  Caught at the statement boundary and surfaced as a typed
    error by the engine. *)
exception Error of string

let error fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

(** A broken engine invariant (a guard admitted a shape its branch
    cannot handle).  Mapped to [Errors.Internal_error] at the statement
    boundary — distinct from {!Error} so user-level evaluation failures
    and engine bugs stay distinguishable to callers. *)
exception Internal of string

let internal fmt = Format.kasprintf (fun m -> raise (Internal m)) fmt
