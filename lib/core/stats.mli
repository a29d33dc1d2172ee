(** Statement update counters (the observability substrate).

    The counts are the structural diff of the statement's input and
    output graphs, computed once at the statement boundary ({!diff}):

    - an id only the output graph has is a created entity; its
      properties count into [props_set] and its labels into
      [labels_added], so [CREATE (:A {x: 1, y: 2})] answers "Created 1
      node, set 2 properties, added 1 label";
    - an id only the input graph has is a deleted entity, and counts
      for that alone: its properties and labels vanish with it;
    - on an id both graphs have, each key whose value changed under
      {!Value.equal_strict} counts once, into [props_removed] when the
      new value is absent and into [props_set] otherwise, and each label
      gained or lost counts once.

    So an entity created and deleted in one statement counts for
    nothing, a property set twice counts once, and one set back to its
    original value not at all.  The [counters] fuzz oracle recomputes
    the diff by a full scan of both graphs and the two must agree (see
    DESIGN.md).  [merge_matched], [merge_created] and [rows] are
    execution facts, not diff facts.

    A bulk-load frame ([Bulk], in the storage library) counts only
    [nodes_created] and [rels_created]: its properties and labels are
    not counted. *)

open Cypher_graph

type t = {
  nodes_created : int;
  nodes_deleted : int;
  rels_created : int;
  rels_deleted : int;
  props_set : int;
  props_removed : int;
  labels_added : int;
  labels_removed : int;
  merge_matched : int;  (** MERGE driving records that found a match *)
  merge_created : int;  (** MERGE driving records that went down the create path *)
  rows : int;  (** rows in the statement's output table *)
}

val empty : t

(** [contains_updates s] is true when any graph-changing count is
    non-zero (merge counters and [rows] do not count). *)
val contains_updates : t -> bool

val equal : t -> t -> bool

(** Neo4j-style one-line footer, e.g.
    ["Created 2 nodes, set 3 properties"]; ["(no changes)"] when
    {!contains_updates} is false. *)
val footer : t -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(* ------------------------------------------------------------------ *)
(* Counting                                                           *)
(* ------------------------------------------------------------------ *)

(** [diff ~before ~after] is the structural diff of two graphs, with
    [merge_matched], [merge_created] and [rows] zero.  It visits only
    the nodes and relationships whose records differ physically
    ({!Graph.fold_node_changes}), so a statement's diff costs about what
    it changed. *)
val diff : before:Graph.t -> after:Graph.t -> t

(** The two execution counts a MERGE clause records while it runs. *)
type collector

val make : unit -> collector

(** [merge_matched c n] / [merge_created c n]: [n] more MERGE driving
    records found a match / went down the create path. *)
val merge_matched : collector -> int -> unit

val merge_created : collector -> int -> unit

(** [finalize c ~before ~after ~rows] is {!diff} with [c]'s MERGE counts
    and the statement's output row count. *)
val finalize : collector -> before:Graph.t -> after:Graph.t -> rows:int -> t

(* ------------------------------------------------------------------ *)
(* Profiling                                                          *)
(* ------------------------------------------------------------------ *)

(** One top-level clause of a PROFILEd statement. *)
type profile_entry = {
  pf_clause : string;  (** rendered clause text (possibly truncated) *)
  pf_rows : int;  (** rows in the table the clause produced *)
  pf_ns : int64;  (** monotonic wall-time spent in the clause *)
}

val pp_profile : Format.formatter -> profile_entry list -> unit
