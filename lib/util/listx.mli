(** List helpers not present in the standard library. *)

(** [take n l] is the first [n] elements of [l] (or all of [l] if
    shorter). *)
val take : int -> 'a list -> 'a list

(** [drop n l] is [l] without its first [n] elements. *)
val drop : int -> 'a list -> 'a list

(** [index_of p l] is the index of the first element satisfying [p]. *)
val index_of : ('a -> bool) -> 'a list -> int option

(** [interleave sep l] places [sep] between consecutive elements. *)
val interleave : 'a -> 'a list -> 'a list

(** [all_distinct cmp l] checks that no two elements of [l] are equal
    under the ordering [cmp]. *)
val all_distinct : ('a -> 'a -> int) -> 'a list -> bool

(** [permutation_of_seed seed l] is a deterministic pseudo-random
    permutation of [l] derived from [seed]; used to exercise
    order-(in)dependence of update semantics. *)
val permutation_of_seed : int -> 'a list -> 'a list
