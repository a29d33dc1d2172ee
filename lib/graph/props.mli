(** Property maps attached to nodes and relationships.

    Following the paper's formalisation, the property function ι is
    total: a key that is not stored maps to [null].  Consequently,
    storing [null] under a key is the same as removing the key, and the
    map never holds [null] values.

    A map is a strictly ascending array of keys with a parallel array of
    values: 3 words plus one per key, against a tree's 6 per key.  The
    key array is immutable and may be shared between maps — a load
    gives every entity with the same keys one array ({!Share}), and
    {!set} on a key already present keeps it, copying only the
    values.  Lookups are binary searches. *)

open Cypher_util.Maps

type t

val empty : t

(** [get props k] is ι(entity, k): [Null] when the key is absent. *)
val get : t -> string -> Value.t

(** [set props k v] stores [v] under [k]; storing [Null] removes the
    key. *)
val set : t -> string -> Value.t -> t

val remove : t -> string -> t

(** [of_list l] builds a property map, dropping [null]-valued pairs;
    of two pairs with one key the later wins. *)
val of_list : (string * Value.t) list -> t

(** [of_map ?intern m] is [m] as a property map, dropping [null]
    values.  [intern] (default: the identity) receives the new key array
    and returns an equal one to store, so a caller can share arrays. *)
val of_map : ?intern:(string array -> string array) -> Value.t Smap.t -> t

(** [of_arrays keys vals] is the map of [keys.(i)] to [vals.(i)].  It
    keeps both arrays, unchecked: [keys] must strictly ascend and be as
    long as [vals], which must hold no [null] ({!is_canonical}).  For
    decoders that build the two arrays themselves. *)
val of_arrays : string array -> Value.t array -> t

val to_map : t -> Value.t Smap.t

(** [to_value p] is [Map (to_map p)]. *)
val to_value : t -> Value.t

(** In key order. *)
val bindings : t -> (string * Value.t) list

(** In ascending order. *)
val keys : t -> string list

(** [iter f p] calls [f k v] on each binding, in key order. *)
val iter : (string -> Value.t -> unit) -> t -> unit

val is_empty : t -> bool

(** The equality used by the collapsibility relation of Section 8.2:
    ι′(x1,k) = ι′(x2,k) for every key k, absent keys being null. *)
val equal : t -> t -> bool

(** [changes before after] is [(set, removed)]: the keys [after] binds
    to a value other than [before]'s under {!Value.equal_strict} (a key
    new to [after] included), and the keys [before] binds that [after]
    does not.  One merge of the two sorted key arrays. *)
val changes : t -> t -> int * int

(** The order of the maps' bindings under [String.compare] and
    {!Value.compare_total}, as [Smap.compare Value.compare_total] gives
    it. *)
val compare : t -> t -> int

(** Hash compatible with {!compare} and {!equal}: equal property maps
    hash equally. *)
val hash : t -> int

(** [shares_keys p1 p2] holds when the two maps store one key array. *)
val shares_keys : t -> t -> bool

(** [is_canonical p] holds when [p]'s keys are strictly ascending and
    none of its values is [null].  Every map the functions above build
    is canonical; the fuzz oracles check the store's maps. *)
val is_canonical : t -> bool

val pp : Format.formatter -> t -> unit
