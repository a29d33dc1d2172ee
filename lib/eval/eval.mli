(** Expression semantics [[e]]G,u (Section 8.1).

    Evaluation is pure: it reads the graph and the record (assignment)
    in the context and produces a value.  Failures raise
    {!Cypher_eval.Ctx.Error}, caught at the statement boundary. *)

open Cypher_graph
open Cypher_ast.Ast

(** Truth value of an arbitrary value in predicate position.
    @raise Ctx.Error on non-boolean, non-null values. *)
val truth : Value.t -> Tri.t

(** Binary arithmetic with Cypher's null propagation and type rules
    (string and list concatenation under [+], integer division, float
    power). *)
val arith : binop -> Value.t -> Value.t -> Value.t

(** [eval ctx e] is [[e]]G,u for the graph and assignment in [ctx].
    An aggregate reads its group's finalised value, which the
    projection installs with {!Ctx.with_aggregate}. *)
val eval : Ctx.t -> expr -> Value.t

(** [eval_truth ctx e] is the predicate value of [e] (for WHERE). *)
val eval_truth : Ctx.t -> expr -> Tri.t

(** Evaluates the property map of an update pattern; null values are
    dropped (creating a property as null stores nothing — the Example 5
    discipline). *)
val eval_props : Ctx.t -> (string * expr) list -> Props.t
