(** The id sets the store keeps: per-node adjacency buckets, the label
    index, property-index leaves and the dangling set.

    Most of these sets are tiny (a node's [:KNOWS] bucket, the nodes
    with one [pid]), so a balanced tree at five words per id is mostly
    overhead.  A set is stored in one of four forms, decided by its
    contents alone:
    - empty;
    - one id;
    - a strictly ascending [int array] of 2 to {!small_max} ids;
    - above {!small_max} ids, a bitmap trie carrying its cardinal: an
      {!Idmap} from [id lsr Idmap.level] to the 32-bit presence bitmap
      of those 32 ids, with no value per id.  A dense run of ids costs
      about 0.04 words per id; the label index of a store whose labels
      are contiguous id runs is a few hundred words per label.

    Every operation returns the canonical form, so two equal sets have
    the same form.  Enumeration is always in ascending id order, and
    {!cardinal} is O(1). *)

type t

(** The largest set stored as an array: 16.  A constant, not a knob. *)
val small_max : int

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val mem : int -> t -> bool

(** O(1) in every form. *)
val cardinal : t -> int

(** [add x s] is [s] itself (physically) when [x] is already in [s]. *)
val add : int -> t -> t

(** [remove x s] is [s] itself (physically) when [x] is not in [s]. *)
val remove : int -> t -> t

(** [union s1 s2]; a union with an empty set is the other argument
    itself (physically), so a node's lone adjacency bucket comes back
    unallocated. *)
val union : t -> t -> t

val diff : t -> t -> t

(** [of_sorted a] is the set of [a], which must be strictly ascending;
    an array of at most {!small_max} ids is stored as given. *)
val of_sorted : int array -> t

(** Folds in ascending id order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** The ids in ascending order. *)
val elements : t -> int list

(** [words s] is the heap words of [s]'s own blocks: 0 for the empty
    set, 2 for one id, 3 + n for an array of n ids, and for a trie its
    3-word block plus {!Idmap.words} (a bitmap is an immediate int, so
    it costs its one slot in a leaf's array). *)
val words : t -> int

(** [is_canonical s] holds when [s] is in the form its contents decide:
    arrays strictly ascending with 2 to {!small_max} ids, tries above
    that in the shape {!Idmap.check} accepts, with no empty or wider
    than 32-bit bitmap, and carrying the cardinal their bits count.  Every set the operations above
    return is canonical; the fuzz oracles check the store's sets. *)
val is_canonical : t -> bool
