(** Growable arrays: filled by pushing, read out once as an array.

    Decoders fill one per entity kind in file order instead of building
    a newest-first list, reversing it and copying it into an array.
    The elements are kept in chunks small enough for the minor heap, so
    growing never copies what is already in and leaves no garbage
    behind: [n] elements cost [n] words plus one per chunk, and
    {!to_array} [n] more. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

(** [push v x] appends [x]. *)
val push : 'a t -> 'a -> unit

(** [get v i] is the [i]-th element pushed.
    @raise Invalid_argument when [i] is not below [length v]. *)
val get : 'a t -> int -> 'a

(** [to_array v] is the elements in push order, in a fresh array. *)
val to_array : 'a t -> 'a array
