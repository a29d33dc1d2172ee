(** Driving tables: bags of consistent records.

    A table is a multiset of records over a fixed column list; the row
    list is the bag (duplicates matter).  Row order is semantically
    irrelevant in Cypher — the paper's point is precisely that legacy
    updates leak it — so this module also provides explicit reorderings
    used to exhibit that leakage. *)

type t

(** The unit table T(): one empty record, no columns — the input to
    every statement (Section 8.1). *)
val unit : t

val columns : t -> string list

(** [dedup_columns columns] drops repeated names, first occurrence
    winning — the column list {!make} keeps. *)
val dedup_columns : string list -> string list
val rows : t -> Record.t list
val row_count : t -> int
val is_empty : t -> bool

(** [make columns rows] builds a table, padding every record to exactly
    [columns] (missing bindings become null, extra bindings are dropped)
    so the consistency invariant holds.  Column order is preserved
    (first occurrence wins on duplicates). *)
val make : string list -> Record.t list -> t

(** [make_rev columns rows_rev] is [make columns (List.rev rows_rev)]
    in a single traversal — for producers that accumulate rows in
    reverse order (the matcher's fold). *)
val make_rev : string list -> Record.t list -> t

val map : (Record.t -> Record.t) -> t -> t

(** [concat_map columns f t] expands every row into several rows; the
    new column set must be supplied since expansion may bind new
    variables. *)
val concat_map : string list -> (Record.t -> Record.t list) -> t -> t

val filter : (Record.t -> bool) -> t -> t
val fold : (Record.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Bag union ⊎: duplicates add up; column lists are unified with null
    padding (used by UNION ALL and by MERGE's Tmatch ⊎ Tcreate). *)
val bag_union : t -> t -> t

(** Duplicate elimination preserving first-occurrence order. *)
val distinct : t -> t

(** Set union: bag union followed by {!distinct} (UNION). *)
val union : t -> t -> t

(** [project names t] is the projection π_names(t) (bag semantics: row
    count is preserved). *)
val project : string list -> t -> t

val skip : int -> t -> t
val limit : int -> t -> t

(** {1 Reorderings for the order-dependence experiments (E6, E7)} *)

val reverse : t -> t
val permute_seed : int -> t -> t

(** Bag equality: same columns, same row multiset. *)
val equal_as_bags : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
