(** Cypher values.

    Values are what expressions evaluate to and what records in driving
    tables bind variables to.  Nodes and relationships are represented
    by their identity; their labels and properties live in the graph
    store ({!Graph}). *)

open Cypher_util.Maps

type node_id = int
type rel_id = int

(** A path alternates nodes and relationships, beginning and ending with
    a node: [path_nodes] has length [k+1] when [path_rels] has length
    [k]. *)
type path = { path_nodes : node_id list; path_rels : rel_id list }

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Map of t Smap.t
  | Node of node_id
  | Rel of rel_id
  | Path of path

(** [map_of_list l] builds a {!Map} value from an association list. *)
val map_of_list : (string * t) list -> t

(** Type families used for equality and ordering decisions. *)
type family =
  | F_null
  | F_bool
  | F_number
  | F_string
  | F_list
  | F_map
  | F_node
  | F_rel
  | F_path

val family : t -> family
val is_null : t -> bool

(** Ternary equality — the semantics of the [=] operator: [null] on
    either side yields [Unknown]; values of different families are not
    equal; lists and maps compare pointwise, where any pointwise
    [Unknown] makes the result [Unknown] unless some component is
    definitely different.  [NaN] is unequal to everything, including
    itself.  Int/float comparison is exact (no rounding through the
    float embedding, which is lossy beyond 2^53). *)
val equal_tri : t -> t -> Tri.t

(** Strict structural equality used by tests and by the engine when
    checking well-definedness of atomic [SET] (where [null = null] must
    hold, unlike in the ternary [=] operator).  Numbers compare across
    int/float exactly; [NaN] equals [NaN] so that conflict detection
    stays deterministic. *)
val equal_strict : t -> t -> bool

(** Total order over all values, by family rank first ([null] last):
    used by [ORDER BY], grouping and [DISTINCT].  [NaN] sorts
    deterministically below every other number (OCaml's
    [Float.compare] placement). *)
val compare_total : t -> t -> int

(** Hash compatible with {!compare_total}: values equal under the total
    order hash equally (notably [Int n] and a numerically equal
    [Float]). *)
val hash_total : t -> int

(** Ordering comparison for the [<], [<=], [>], [>=] operators:
    [Error ()] (i.e. unknown) when either side is null or the families
    are incomparable.  [NaN] is incomparable to every number. *)
val compare_tri : t -> t -> (int, unit) result

(** [escape_string s] escapes [s] for a single-quoted Cypher literal:
    quotes and backslashes are escaped, control characters become
    [\n]/[\t]/[\r]/[\b]/[\f] or [\uXXXX], so the printed literal
    re-lexes to exactly [s]. *)
val escape_string : string -> string

(** [add_escaped buf s] appends [escape_string s] to [buf]. *)
val add_escaped : Buffer.t -> string -> unit

(** Prints in Cypher literal syntax where one exists. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
