(** Rewriting of entity references inside values and records.

    Used by atomic DELETE ("any reference to a deleted entity in the
    driving table is replaced by a null", Section 7) and by the
    MERGE SAME quotient (occurrences of an entity are replaced by their
    equivalence-class representative, Section 8.2). *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_table

(** [record ~node ~rel r] rewrites every node/relationship reference
    in [r]'s values, descending into lists, maps and paths.  [node] and
    [rel] return [None] to null the reference out; a path with a deleted
    component becomes null as a whole. *)
val record :
  node:(Value.node_id -> Value.node_id option) ->
  rel:(Value.rel_id -> Value.rel_id option) ->
  Record.t ->
  Record.t

val table :
  node:(Value.node_id -> Value.node_id option) ->
  rel:(Value.rel_id -> Value.rel_id option) ->
  Table.t ->
  Table.t

(** [null_deleted ~nodes ~rels t] replaces references to the deleted id
    sets by null throughout [t]. *)
val null_deleted : nodes:Iset.t -> rels:Iset.t -> Table.t -> Table.t
