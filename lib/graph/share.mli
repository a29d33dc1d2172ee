(** Sharing what repeats across the entities of one load.

    A decoded graph repeats a handful of label sets, property keys,
    relationship types and small values across thousands of entities.
    Decoders build entities through one table per load, so equal
    pieces are stored once: every entity with the labels [[Person]]
    points at one [Sset.t], every [age: 30] at one [Int 30], and every
    property map with the keys [age], [name] at one key array.
    Values are immutable, so sharing is invisible to every reader and
    to every update, which replaces a value rather than mutating it. *)

open Cypher_util.Maps

type t

val create : unit -> t

(** [name t s] is the first string equal to [s] seen by [t]. *)
val name : t -> string -> string

(** [labels t l] is one set for every list equal to [l]. *)
val labels : t -> string list -> Sset.t

(** [value t v] is the first value equal to [v] seen by [t] when [v] is
    an [Int], [String] or [Bool], and [v] itself otherwise.  Floats are
    never shared: structural equality equates [0.0] with [-0.0] and
    never a NaN with itself. *)
val value : t -> Value.t -> Value.t

(** [keys t a] is the first key array equal to [a] seen by [t]. *)
val keys : t -> string array -> string array

(** [props t m] is {!Props.of_map} of [m] whose key array is the first
    equal one seen by [t]. *)
val props : t -> Value.t Smap.t -> Props.t
