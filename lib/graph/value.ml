(** Cypher values.

    Values are what expressions evaluate to and what records in driving
    tables bind variables to.  Nodes and relationships are represented by
    their identity; their labels and properties live in the graph store
    ({!Graph}). *)

open Cypher_util.Maps

type node_id = int
type rel_id = int

(** A path alternates nodes and relationships, beginning and ending with a
    node: [nodes] has length [k+1] when [rels] has length [k]. *)
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

let map_of_list l = Map (smap_of_list l)

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

let family = function
  | Null -> F_null
  | Bool _ -> F_bool
  | Int _ | Float _ -> F_number
  | String _ -> F_string
  | List _ -> F_list
  | Map _ -> F_map
  | Node _ -> F_node
  | Rel _ -> F_rel
  | Path _ -> F_path

let is_null = function Null -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Equality under ternary logic (the semantics of the [=] operator).  *)
(* ------------------------------------------------------------------ *)

(* 2^62 = [max_int] + 1 on 64-bit OCaml; exactly representable as a
   float.  Any float at or beyond it exceeds every int, so the exact
   cross-type comparison below only ever truncates floats whose
   magnitude fits in an [Int64] without overflow. *)
let int_range_bound = 0x1p62

(** Exact comparison of an int with a (non-nan) float.  Going through
    [float_of_int] is wrong: the embedding rounds above 2^53, making
    e.g. [2^53 + 1] compare equal to [2^53 +. 0.] and order incorrectly
    around the boundary.  Instead the float is split into integral and
    fractional parts and the integral part is compared exactly. *)
let compare_int_float (x : int) (y : float) =
  if y >= int_range_bound then -1
  else if y < -.int_range_bound then 1
  else
    let t = Float.trunc y in
    (* |t| <= 2^62, integral: the conversion is exact *)
    let ti = Int64.to_int (Int64.of_float t) in
    if x < ti then -1
    else if x > ti then 1
    else compare 0. (y -. t)

let is_nan = function Float f -> Float.is_nan f | _ -> false

(** Total comparison of two numbers, used by the global sort order:
    [Float.compare]'s deterministic placement of [nan] (below every
    other number) is kept, and int/float comparison is exact. *)
let num_compare a b =
  match (a, b) with
  | Int x, Int y -> compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> if Float.is_nan y then 1 else compare_int_float x y
  | Float x, Int y -> if Float.is_nan x then -1 else -compare_int_float y x
  | _ -> invalid_arg "Value.num_compare: not numbers"

(** Ternary equality: [null] on either side yields [Unknown]; values of
    different families are simply not equal; lists and maps compare
    pointwise, where any pointwise [Unknown] makes the result [Unknown]
    unless some component is definitely different. *)
let rec equal_tri a b : Tri.t =
  match (a, b) with
  | Null, _ | _, Null -> Tri.Unknown
  | Bool x, Bool y -> Tri.of_bool (x = y)
  | (Int _ | Float _), (Int _ | Float _) ->
      (* NaN is unequal to everything under [=], including itself; the
         global sort order ({!compare_total}) still places it
         deterministically *)
      if is_nan a || is_nan b then Tri.False
      else Tri.of_bool (num_compare a b = 0)
  | String x, String y -> Tri.of_bool (String.equal x y)
  | Node x, Node y -> Tri.of_bool (x = y)
  | Rel x, Rel y -> Tri.of_bool (x = y)
  | Path x, Path y ->
      Tri.of_bool (x.path_nodes = y.path_nodes && x.path_rels = y.path_rels)
  | List xs, List ys ->
      if List.length xs <> List.length ys then Tri.False
      else
        List.fold_left2
          (fun acc x y -> Tri.conj acc (equal_tri x y))
          Tri.True xs ys
  | Map xm, Map ym ->
      let keys m = List.map fst (Smap.bindings m) in
      if keys xm <> keys ym then Tri.False
      else
        List.fold_left2
          (fun acc (_, x) (_, y) -> Tri.conj acc (equal_tri x y))
          Tri.True (Smap.bindings xm) (Smap.bindings ym)
  | ( (Bool _ | Int _ | Float _ | String _ | List _ | Map _ | Node _ | Rel _
      | Path _),
      _ ) ->
      Tri.False

(** Strict structural equality used by tests and by the engine when
    checking well-definedness of atomic [SET] (where [null = null] must
    hold, unlike in the ternary [=] operator). *)
let rec equal_strict a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | (Int _ | Float _), (Int _ | Float _) -> num_compare a b = 0
  | String x, String y -> String.equal x y
  | Node x, Node y -> x = y
  | Rel x, Rel y -> x = y
  | Path x, Path y -> x.path_nodes = y.path_nodes && x.path_rels = y.path_rels
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal_strict xs ys
  | Map xm, Map ym -> smap_equal equal_strict xm ym
  | ( ( Null | Bool _ | Int _ | Float _ | String _ | List _ | Map _ | Node _
      | Rel _ | Path _ ),
      _ ) ->
      false

(* ------------------------------------------------------------------ *)
(* Total order (used by ORDER BY, DISTINCT and grouping).             *)
(* ------------------------------------------------------------------ *)

let family_rank = function
  | F_map -> 0
  | F_node -> 1
  | F_rel -> 2
  | F_list -> 3
  | F_path -> 4
  | F_string -> 5
  | F_bool -> 6
  | F_number -> 7
  | F_null -> 8 (* nulls sort last, following Cypher's global order *)

(** Total order over all values: by family rank first, then within a
    family.  This is the "global sort order" used for [ORDER BY],
    grouping keys, and [DISTINCT]; under it [null] equals [null]. *)
let rec compare_total a b =
  let fa = family a and fb = family b in
  if fa <> fb then compare (family_rank fa) (family_rank fb)
  else
    match (a, b) with
    | Null, Null -> 0
    | Bool x, Bool y -> compare x y
    | (Int _ | Float _), (Int _ | Float _) -> num_compare a b
    | String x, String y -> String.compare x y
    | Node x, Node y -> compare x y
    | Rel x, Rel y -> compare x y
    | Path x, Path y ->
        compare (x.path_nodes, x.path_rels) (y.path_nodes, y.path_rels)
    | List xs, List ys -> compare_lists xs ys
    | Map xm, Map ym ->
        compare_lists
          (List.concat_map (fun (k, v) -> [ String k; v ]) (Smap.bindings xm))
          (List.concat_map (fun (k, v) -> [ String k; v ]) (Smap.bindings ym))
    | ( ( Null | Bool _ | Int _ | Float _ | String _ | List _ | Map _ | Node _
        | Rel _ | Path _ ),
        _ ) ->
        assert false (* families already proved equal *)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare_total x y in
      if c <> 0 then c else compare_lists xs' ys'

(* ------------------------------------------------------------------ *)
(* Hashing compatible with the total order                            *)
(* ------------------------------------------------------------------ *)

(** [hash_total v] is compatible with {!compare_total}: equal values
    hash equally.  Numbers are hashed through their float embedding
    because the total order equates [Int n] with [Float f] when they are
    numerically equal — and [Int n = Float f] forces [f] to represent
    [n] exactly, so [float_of_int n] and [f] are the same float.
    ([Hashtbl.hash] already folds [-0.] into [0.] and all nans
    together, matching OCaml's float compare.)  Collisions across
    families are harmless: hashes only pre-bucket candidates that a
    full comparison then distinguishes. *)
let rec hash_total v =
  match v with
  | Null -> 0x6e756c6c
  | Bool b -> Hashtbl.hash b
  | Int x -> Hashtbl.hash (float_of_int x)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Node id -> 0x517cc1b7 lxor Hashtbl.hash id
  | Rel id -> 0x27220a95 lxor Hashtbl.hash id
  | Path p -> Hashtbl.hash (p.path_nodes, p.path_rels)
  | List xs ->
      List.fold_left (fun acc x -> (acc * 31) + hash_total x) 0x11_57 xs
  | Map m ->
      Smap.fold
        (fun k x acc -> ((acc * 31) + Hashtbl.hash k * 31) + hash_total x)
        m 0x11_3a

(** Ordering comparison for the [<, <=, >, >=] operators: [Unknown] when
    either side is null or the families are incomparable. *)
let rec compare_tri a b : (int, unit) result =
  match (family a, family b) with
  | F_null, _ | _, F_null -> Error ()
  | F_number, F_number ->
      (* NaN is incomparable under the ordering operators even though
         the global sort order places it deterministically *)
      if is_nan a || is_nan b then Error () else Ok (num_compare a b)
  | F_string, F_string -> (
      match (a, b) with
      | String x, String y -> Ok (String.compare x y)
      | _ -> assert false)
  | F_bool, F_bool -> (
      match (a, b) with Bool x, Bool y -> Ok (compare x y) | _ -> assert false)
  | F_list, F_list -> (
      (* lists compare lexicographically when comparable elementwise *)
      match (a, b) with
      | List xs, List ys ->
          let rec loop xs ys =
            match (xs, ys) with
            | [], [] -> Ok 0
            | [], _ :: _ -> Ok (-1)
            | _ :: _, [] -> Ok 1
            | x :: xs', y :: ys' -> (
                match compare_tri x y with
                | Error () -> Error ()
                | Ok 0 -> loop xs' ys'
                | Ok c -> Ok c)
          in
          loop xs ys
      | _ -> assert false)
  | _, _ -> Error ()

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '\'' -> Buffer.add_string buf "\\'"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when c < ' ' ->
          (* remaining control characters: \uXXXX so the literal
             round-trips through the lexer *)
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f ->
      (* canonical "nan": the C library prints the sign bit ("-nan"),
         which is platform noise, not a value distinction *)
      if Float.is_nan f then Fmt.string ppf "nan"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Fmt.pf ppf "%.1f" f
      else Fmt.float ppf f
  | String s -> Fmt.pf ppf "'%s'" (escape_string s)
  | List l -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) l
  | Map m ->
      Fmt.pf ppf "{%a}"
        Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> pf ppf "%s: %a" k pp v))
        (Smap.bindings m)
  | Node id -> Fmt.pf ppf "#node(%d)" id
  | Rel id -> Fmt.pf ppf "#rel(%d)" id
  | Path p ->
      Fmt.pf ppf "#path(nodes=[%a]; rels=[%a])"
        Fmt.(list ~sep:(any ",") int)
        p.path_nodes
        Fmt.(list ~sep:(any ",") int)
        p.path_rels

let to_string v = Fmt.str "%a" pp v
