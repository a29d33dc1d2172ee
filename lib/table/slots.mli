(** Slot tables: compiled name → index layouts for array rows.

    A slot table maps each in-scope variable of a clause to a fixed
    array index, computed once at the clause boundary; {!Record} array
    rows carry one.  See slots.ml for the layout discipline. *)

open Cypher_graph

type t = {
  names : string array;
      (** slot order, first occurrence wins — logically immutable, do
          not write *)
  sorted : int array;
      (** slot indices in ascending name order — logically immutable *)
  mutable exts : (string * t) list;  (** memoized {!extend} results *)
}

(** A physically unique sentinel marking an unbound slot.  Compare with
    [==] only; must never escape through a {!Record} accessor. *)
val absent : Value.t

val width : t -> int

(** [name t i] is the name of slot [i]. *)
val name : t -> int -> string

(** [index t name] is [name]'s slot, or [-1] when it has none. *)
val index : t -> string -> int

(** [of_names names] compiles a layout over [names], deduplicated to
    first occurrence. *)
val of_names : string list -> t

(** The slot names, in slot order. *)
val names : t -> string list

(** [extend t name] is [t] with [name] appended as slot [width t];
    memoized on [t] unless [t] has width 0 (the process-global empty
    layout must not accumulate client-chosen names). *)
val extend : t -> string -> t
