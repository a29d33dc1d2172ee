(** Persistent maps keyed by entity ids: the store's node and
    relationship maps and both typed adjacency maps.

    A radix trie over the key's bits.  An inner node fans out 32 ways
    on five bits of the key (a constant, not a knob); a leaf covers 32
    consecutive ids with a presence bitmap and an array holding exactly
    the values present, in id order.  A dense run of ids costs about
    1.16 words per binding, where a balanced tree costs 6.

    The shape is decided by the keys alone: no node is empty, and the
    root is as low as the largest key allows.  An update copies one
    root-to-leaf path and leaves the map it came from intact, so a
    reader holding the old map keeps a valid snapshot.  A removed value
    is dropped from the copied leaf: the new map never reaches it.

    Keys are non-negative ints; every enumeration is in ascending key
    order and {!cardinal} is O(1). *)

type 'a t

(** Key bits per level: 5, so a node fans out [1 lsl level] = 32 ways.
    {!Ids} keys its bitmap trie by [id lsr level] with the same shape. *)
val level : int

(** [popcount b] is the number of set bits of the 32-bit bitmap [b]. *)
val popcount : int -> int

val empty : 'a t

(** O(1): the map carries its binding count. *)
val cardinal : 'a t -> int

(** [None] for a negative key. *)
val find_opt : int -> 'a t -> 'a option

val mem : int -> 'a t -> bool

(** @raise Invalid_argument on a negative key. *)
val add : int -> 'a -> 'a t -> 'a t

(** [remove k m] is [m] itself (physically) when [k] is unbound. *)
val remove : int -> 'a t -> 'a t

(** As [Map.S.update]: [f] sees the current binding, and [None] unbinds.
    The map is returned as it is when [f] keeps an absent key absent.
    @raise Invalid_argument when [f] binds a negative key. *)
val update : int -> ('a option -> 'a option) -> 'a t -> 'a t

(** [add_ascending n key f m] binds [key i] to [f i old] for each [i] in
    [0 .. n - 1], in that order, where [old] is [key i]'s binding in [m].
    The keys must be non-negative and strictly ascending.  Each touched
    leaf and inner node is built once, straight from the run of keys it
    covers: no path is copied per key.
    @raise Invalid_argument when the keys are negative or do not
    strictly ascend. *)
val add_ascending : int -> (int -> int) -> (int -> 'a option -> 'a) -> 'a t -> 'a t

(** Folds in ascending key order. *)
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Folds in descending key order: builds ascending lists without a
    reversal. *)
val fold_desc : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** [fold_diff f a b acc] calls [f key (find_opt key a) (find_opt key b)]
    for every key whose bindings in [a] and [b] are not physically
    equal, in ascending key order.  It never descends into a subtree the
    two maps share, so diffing a map against one derived from it by [k]
    updates costs about [k] root-to-leaf paths, not a scan. *)
val fold_diff : (int -> 'a option -> 'a option -> 'b -> 'b) -> 'a t -> 'a t -> 'b -> 'b

(** [words m] is the heap words of [m]'s own blocks — the trie's nodes,
    bitmaps and arrays — apart from the values it holds. *)
val words : 'a t -> int

(** [check m] is [Ok ()] when [m] has the shape its keys decide: no
    empty leaf or inner node, each node's array as long as its bitmap
    has bits, leaves exactly at the bottom level, the root as low as
    its largest key allows, and a binding count that agrees with a scan.
    Every map the operations above return passes; the fuzz oracles
    check the store's maps. *)
val check : 'a t -> (unit, string) result
