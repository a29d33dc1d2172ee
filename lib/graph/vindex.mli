(** The value map of one exact-value property index: property value →
    the ids of the nodes carrying it.

    A persistent B-tree of sorted arrays, ordered by
    {!Value.compare_total} (so [1] and [1.0] are one key, and every nan
    is one key).  A leaf holds up to 32 entries as a value array and a
    parallel {!Ids.t} array; an inner node holds up to 32 children and
    the least value of each.  A store whose indexed values are mostly
    unique pays about 4 words per entry besides the values themselves,
    which it shares with the nodes' property maps; a balanced tree
    paid 8.

    An update copies one leaf and the path above it, so a reader
    holding the old map keeps a valid snapshot.  Every node other than
    the root holds 16 to 32 entries (a split of 33 gives 16 and 17; a
    node left with 15 joins a neighbour, splitting again when the two
    hold more than 32), and every leaf is at the same depth.  The shape
    depends on the order of the updates: two maps with the same
    bindings may differ in shape, never in what any function below
    returns. *)

type t

val empty : t
val is_empty : t -> bool

(** [find v m] is the set bound to [v], or {!Ids.empty}. *)
val find : Value.t -> t -> Ids.t

(** As [Map.S.update]: [f] sees the current set, and [None] (or an
    empty set) unbinds.  The map is returned as it is when [f] keeps an
    absent key absent or returns the bound set itself. *)
val update : Value.t -> (Ids.t option -> Ids.t option) -> t -> t

(** [of_sorted keys sets] binds [keys.(i)] to [sets.(i)].  The keys must
    strictly ascend under {!Value.compare_total} and the sets be
    nonempty; leaves and inner nodes are packed full (32), the last
    ones of each level evened out.  The map may keep the elements but
    not the arrays.
    @raise Invalid_argument when the arrays differ in length. *)
val of_sorted : Value.t array -> Ids.t array -> t

(** Folds in ascending key order. *)
val fold : (Value.t -> Ids.t -> 'a -> 'a) -> t -> 'a -> 'a

(** [words m] is the heap words of [m]'s own blocks — nodes, arrays and
    the {!Ids.words} of its sets — apart from the values it keys by. *)
val words : t -> int

(** [check m] is [Ok ()] when [m] keeps the invariants above: keys
    strictly ascending across the leaves, no empty set, every leaf at
    one depth, 16 to 32 entries in every node below the root and at
    most 32 (at least two children for an inner one) in the root, and
    each inner node's least values those of its children.  Every map
    the operations above return passes; the fuzz oracles check the
    store's indexes. *)
val check : t -> (unit, string) result
