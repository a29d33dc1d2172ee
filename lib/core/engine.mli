(** The clause-by-clause execution engine.

    Implements the semantics framework of Section 8.1: a clause denotes
    a function on graph–table pairs, [[C S]](G,T) = [[S]]([[C]](G,T)),
    and a statement's output is [[Q]](G, T()) where T() is the unit
    table. *)

open Cypher_graph
open Cypher_table

(** Cross-execution cache of hoisted match plans, carried by a prepared
    statement ({!Api.prepare}).  Slots are keyed by top-level clause
    index; the memo remembers the property-index key set it was filled
    under and invalidates itself when that set changes, so a plan
    compiled before an index registration is never served afterwards. *)
module Plan_memo : sig
  type t

  val create : unit -> t
  val clear : t -> unit
end

(** [exec_clause config ~stats (g, t) c] is [[c]](g, t); a MERGE counts
    its matched and created driving records into [stats].
    @raise Errors.Error / Cypher_eval.Ctx.Error on failure. *)
val exec_clause :
  Config.t ->
  stats:Stats.collector ->
  Graph.t * Table.t -> Cypher_ast.Ast.clause -> Graph.t * Table.t

(** [output ~stats ?profile config g q] is output(Q, G) of Section 8.1:
    runs the whole statement on the unit table.  Under the legacy
    regime, graph validity is only checked here, at the statement
    boundary — mirroring Neo4j's commit-time dangling check
    (Section 4.2).  When [profile] is given, each top-level clause is
    timed and its output row count recorded (entries accumulate in
    execution order, latest first).  Its MERGE clauses count into
    [stats]. *)
val output :
  stats:Stats.collector ->
  ?profile:Stats.profile_entry list ref ->
  ?memo:Plan_memo.t ->
  Config.t -> Graph.t -> Cypher_ast.Ast.query -> Graph.t * Table.t
