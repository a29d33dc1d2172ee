(** Records: the rows of driving tables.

    A record is a key–value map from variable names to Cypher values.
    In Cypher the records of a table are *consistent*: they share the
    same set of keys (the table's columns); {!Table} maintains that
    invariant.

    Physically a record is a flat value array over a compiled {!Slots}
    layout, which the engine compiles once per clause boundary.
    Observable orderings (keys, bindings, comparison, printing) follow
    ascending name order, so nothing downstream depends on slot order.
    The one process-global layout is {!empty}'s, and binding onto it
    never memoizes a layout extension (see {!Slots.extend}). *)

open Cypher_graph

type t

val empty : t

(** [bind r name v] binds [name]; a name outside [r]'s layout extends
    the layout. *)
val bind : t -> string -> Value.t -> t

val find_opt : t -> string -> Value.t option

(** [compile_find r0 name] compiles a lookup for [name] against the
    layout of [r0] — a representative of the rows about to be scanned.
    The index resolves once and same-layout rows read by array probe;
    other rows fall back to {!find_opt}, so the compiled lookup is sound
    on arbitrary rows.  For scans that look one name up across many
    rows (aggregation, projection). *)
val compile_find : t -> string -> t -> Value.t option

(** [find r name] is the value bound to [name], or [Null] when absent
    (used for consistency padding, e.g. by OPTIONAL MATCH or UNION). *)
val find : t -> string -> Value.t

val mem : t -> string -> bool

(** The bound names, in ascending order. *)
val keys : t -> string list

(** The bindings, in ascending name order. *)
val bindings : t -> (string * Value.t) list

(** [of_list l] is the record binding [l] (a repeated name keeps its
    last binding), over a layout compiled once from its names. *)
val of_list : (string * Value.t) list -> t

(** [of_slots tab cells] adopts [cells] as a row over [tab] without
    copying; the caller transfers ownership of the array.  Unbound
    slots must hold {!Slots.absent}. *)
val of_slots : Slots.t -> Value.t array -> t

(** [slots_view r] is [r]'s layout and cells (shared, not copied —
    callers must not write). *)
val slots_view : t -> Slots.t * Value.t array

(** [slot_bind r i v] is the conflict-checked bind of slot [i]: the
    extended row when the slot is empty, [r] itself when it already
    holds a value equal (strictly) to [v], [None] on a conflicting
    rebind.  The hot path of the matcher's precompiled binding sites:
    the slot index is resolved once per pattern invocation, so the
    per-embedding work is one probe and a copying store.  Only valid
    when [r]'s layout has slot [i] — the matcher guarantees this by
    resolving [i] against the row it starts from (in-layout binds
    preserve the layout, extensions only append). *)
val slot_bind : t -> int -> Value.t -> t option

(** [seed tab r] re-lays [r] out over [tab] — the clause-boundary
    conversion of the read pipeline.  Layout names unbound in [r] start
    absent; bindings outside the layout are dropped. *)
val seed : Slots.t -> t -> t

(** [project tab r] keeps only the bindings for the names of [tab],
    padding missing ones with [Null]. *)
val project : Slots.t -> t -> t

(** [map_values f r] rewrites every bound value (used to replace deleted
    entities by nulls, and to rewrite collapsed ids after MERGE SAME). *)
val map_values : (Value.t -> Value.t) -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
