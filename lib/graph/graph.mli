(** The property graph store.

    Implements the paper's formal model G = 〈N, R, src, tgt, ι, λ, τ〉
    (Section 8.2) as an immutable, persistent structure.  Immutability is
    what makes the revised, atomic update semantics easy to implement
    correctly: clauses evaluate all their reads against the input graph
    and produce a fresh output graph in one step.

    The store additionally supports the *legacy* (Cypher 9) behaviours
    the paper criticises: {!remove_node_force} can leave dangling
    relationships (Section 4.2), and deleted entities leave tombstones so
    that a driving table can still reference them (the "empty node"
    observation of Section 4.2). *)

open Cypher_util.Maps

type node_id = Value.node_id
type rel_id = Value.rel_id

type node = { n_id : node_id; labels : Sset.t; n_props : Props.t }

type rel = {
  r_id : rel_id;
  src : node_id;
  tgt : node_id;
  r_type : string;
  r_props : Props.t;
}

(** What kind of entity a tombstoned id used to be. *)
type tomb = Tomb_node | Tomb_rel

type t

val empty : t

(** Cumulative wall-time spent building read snapshots, process-wide.
    Always [0L]: the persistent maps are the only read path and nothing
    is built at a read-phase boundary.  Kept for the wire benchmark's
    per-layer trace, which reads it. *)
val csr_build_ns_total : unit -> int64

(** {1 Lookup} *)

val node : t -> node_id -> node option
val rel : t -> rel_id -> rel option

(** @raise Invalid_argument when the entity does not exist. *)
val node_exn : t -> node_id -> node

(** @raise Invalid_argument when the entity does not exist. *)
val rel_exn : t -> rel_id -> rel

val has_node : t -> node_id -> bool
val has_rel : t -> rel_id -> bool

(** The id supply; ids below this may have existed at some point. *)
val next_id : t -> int

val tombstones : t -> tomb Imap.t
val is_tombstoned : t -> int -> bool
val tombstone : t -> int -> tomb option
val node_count : t -> int
val rel_count : t -> int
val nodes : t -> node list
val rels : t -> rel list
val node_ids : t -> node_id list
val rel_ids : t -> rel_id list
val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val fold_rels : (rel -> 'a -> 'a) -> t -> 'a -> 'a

(** Relationships leaving node [id], in id order. *)
val out_rels : t -> node_id -> rel list

(** Relationships entering node [id], in id order. *)
val in_rels : t -> node_id -> rel list

(** All relationships incident to node [id] (self-loops reported once). *)
val incident_rels : t -> node_id -> rel list

val degree : t -> node_id -> int

(** {1 Typed adjacency}

    Per-node adjacency bucketed by relationship type, maintained
    alongside the plain adjacency sets.  A pattern hop carrying a type
    label enumerates exactly the matching relationships instead of
    filtering the full neighbour list post-hoc. *)

(** Relationships of type [ty] leaving node [id], in id order. *)
val out_rels_typed : t -> node_id -> string -> rel list

(** Relationships of type [ty] entering node [id], in id order. *)
val in_rels_typed : t -> node_id -> string -> rel list

(** Relationships of type [ty] incident to node [id] (self-loops once). *)
val incident_rels_typed : t -> node_id -> string -> rel list

val out_degree_typed : t -> node_id -> string -> int
val in_degree_typed : t -> node_id -> string -> int

(** Raw adjacency id-sets, for callers that fold over neighbours without
    materialising relationship lists (the matcher's hop enumeration). *)
val out_rel_ids : t -> node_id -> Iset.t

val in_rel_ids : t -> node_id -> Iset.t
val out_rel_ids_typed : t -> node_id -> string -> Iset.t
val in_rel_ids_typed : t -> node_id -> string -> Iset.t

(** All relationships carrying type [ty], in id order — from a
    maintained type index. *)
val rels_with_type : t -> string -> rel list

(** Cardinality of the type-index bucket for [ty]. *)
val type_count : t -> string -> int

(** Cardinality of the label-index bucket for [label]. *)
val label_count : t -> string -> int

(** Relationships whose source or target node no longer exists — only
    possible after a legacy force-delete; a well-formed graph has none. *)
val dangling_rels : t -> rel list

val is_wellformed : t -> bool

(** {1 Construction} *)

val create_node : ?labels:string list -> ?props:Props.t -> t -> node_id * t

(** @raise Invalid_argument when an endpoint does not exist. *)
val create_rel :
  src:node_id -> tgt:node_id -> r_type:string -> ?props:Props.t -> t ->
  rel_id * t

(** [add_batch g nodes rels] adds fresh node and relationship records in
    one bottom-up pass: each map takes its new keys in ascending order
    and each id set is built once from the batch.  The records' ids,
    merged in ascending order, must be exactly [next_id g],
    [next_id g + 1], ... (each list ascending); the result equals
    applying {!create_node}/{!create_rel} to them in id order.
    Relationship endpoints may be nodes of [g] or of [nodes].
    @raise Invalid_argument on an id out of sequence or a missing
    endpoint. *)
val add_batch : t -> node list -> rel list -> t

(** {1 Modification (persistent: returns a new graph)} *)

val set_node_prop : t -> node_id -> string -> Value.t -> t
val set_rel_prop : t -> rel_id -> string -> Value.t -> t
val remove_node_prop : t -> node_id -> string -> t
val remove_rel_prop : t -> rel_id -> string -> t
val replace_node_props : t -> node_id -> Props.t -> t
val replace_rel_props : t -> rel_id -> Props.t -> t
val merge_node_props : t -> node_id -> Props.t -> t
val merge_rel_props : t -> rel_id -> Props.t -> t
val add_label : t -> node_id -> string -> t
val add_labels : t -> node_id -> string list -> t
val remove_label : t -> node_id -> string -> t

(** {1 Deletion} *)

val remove_rel : t -> rel_id -> t

(** Strict node removal: refuses (returns [Error rels]) when
    relationships are still attached — the revised [DELETE] semantics of
    Section 7. *)
val remove_node : t -> node_id -> (t, rel list) result

(** Legacy force removal: deletes the node even when relationships are
    attached, leaving them dangling — the intermediate illegal state the
    paper exhibits in Section 4.2. *)
val remove_node_force : t -> node_id -> t

(** Detaching removal: deletes all incident relationships first. *)
val remove_node_detach : t -> node_id -> t

(** {1 Property indexes}

    Optional exact-value secondary indexes over a (label, property key)
    pair.  Registration is explicit; once registered, an index is
    maintained through every node construction, update and removal, and
    can be re-registered across {!rebuild}. *)

(** [add_prop_index ~label ~key g] registers and builds the (label, key)
    index; idempotent. *)
val add_prop_index : label:string -> key:string -> t -> t

val has_prop_index : t -> label:string -> key:string -> bool

(** The registered (label, key) index pairs, alphabetically. *)
val prop_index_keys : t -> (string * string) list

(** [nodes_with_prop g ~label ~key v] is [Some ids] — the nodes carrying
    [label] whose [key] property equals [v], in id order — when the
    (label, key) index is registered, [None] otherwise.  A [Null] value
    yields [Some []]: null never matches. *)
val nodes_with_prop :
  t -> label:string -> key:string -> Value.t -> node_id list option

(** Cardinality of the index bucket for [v]; [None] when unindexed. *)
val count_with_prop :
  t -> label:string -> key:string -> Value.t -> int option

(** {1 Wholesale reconstruction} *)

(** [rebuild ~next_id ~tombs nodes rels] constructs a graph from entity
    lists in one bottom-up pass, as {!add_batch} does, recomputing
    adjacency and every index.  Every relationship
    endpoint must be present in [nodes].  Used by the MERGE SAME
    quotient (Section 8.2).  [prop_indexes] re-registers (and rebuilds)
    the given property indexes on the result.
    @raise Invalid_argument on a missing endpoint. *)
val rebuild :
  ?prop_indexes:(string * string) list ->
  next_id:int ->
  tombs:tomb Imap.t ->
  node list ->
  rel list ->
  t

(** {1 Entity views for the evaluator} *)

(** λ of a node as a sorted list; empty for tombstoned/unknown ids (the
    "empty node" a legacy query can still observe after deletion). *)
val labels_of : t -> node_id -> string list

val node_props_of : t -> node_id -> Props.t
val rel_props_of : t -> rel_id -> Props.t
val has_label : t -> node_id -> string -> bool

(** Ids of the nodes carrying [label], in id order — served from a
    maintained label index, so label-anchored pattern scans avoid a full
    node sweep. *)
val nodes_with_label : t -> string -> node_id list

(** All labels in use with their node counts, alphabetically. *)
val label_histogram : t -> (string * int) list

(** All relationship types in use with their counts, alphabetically. *)
val type_histogram : t -> (string * int) list

(** {1 Printing} *)

val pp_node : t -> Format.formatter -> node -> unit
val pp_rel : t -> Format.formatter -> rel -> unit

(** Deterministic textual dump: nodes then relationships, in id order. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
