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

val make :
  ?params:Value.t Smap.t ->
  ?pattern_oracle:(t -> Cypher_ast.Ast.pattern list -> Record.t list) ->
  ?shortest_oracle:(t -> all:bool -> Cypher_ast.Ast.pattern -> Value.t) ->
  Graph.t ->
  Record.t ->
  t
val with_row : t -> Record.t -> t

(** [with_aggregate ctx value_of] evaluates aggregate nodes through
    [value_of] (see the [aggregate] field). *)
val with_aggregate : t -> (Cypher_ast.Ast.expr -> Value.t) -> t

(** Evaluation failure (type errors, unknown variables, division by
    zero, …).  Caught at the statement boundary and surfaced as a typed
    error by the engine. *)
exception Error of string

(** [error fmt ...] raises {!Error} with a formatted message. *)
val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** A broken engine invariant, as opposed to a user-level evaluation
    failure.  Mapped to [Errors.Internal_error] at the statement
    boundary so a long-lived server reports it and survives. *)
exception Internal of string

(** [internal fmt ...] raises {!Internal} with a formatted message. *)
val internal : ('a, Format.formatter, unit, 'b) format4 -> 'a
