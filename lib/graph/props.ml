(** Property maps attached to nodes and relationships.

    Following the paper's formalisation, the property function ι is total:
    a key that is not stored maps to [null].  Consequently, storing [null]
    under a key is the same as removing the key, and the map never holds
    [null] values. *)

open Cypher_util.Maps

(* [keys] strictly ascending, [vals] the parallel non-null values.  Many
   entities of one load point at one [keys] array, and an update to an
   existing key copies only [vals], so the sharing survives updates. *)
type t = { keys : string array; vals : Value.t array }

let empty = { keys = [||]; vals = [||] }
let is_empty p = Array.length p.keys = 0

(* the index of [k] in [keys], or [-(i + 1)] when [k] is absent and
   would go at index [i] *)
let search k keys =
  let rec go lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) lsr 1 in
      let c = String.compare k keys.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length keys)

(** [get props k] is ι(entity, k): [Null] when the key is absent. *)
let get p k =
  let i = search k p.keys in
  if i >= 0 then p.vals.(i) else Value.Null

let insert a i x =
  Array.init (Array.length a + 1) (fun j ->
      if j < i then a.(j) else if j = i then x else a.(j - 1))

let delete a i = Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let remove p k =
  let i = search k p.keys in
  if i < 0 then p
  else if Array.length p.keys = 1 then empty
  else { keys = delete p.keys i; vals = delete p.vals i }

(** [set props k v] stores [v] under [k]; storing [Null] removes the key. *)
let set p k v =
  match v with
  | Value.Null -> remove p k
  | v ->
      let i = search k p.keys in
      if i >= 0 then begin
        let vals = Array.copy p.vals in
        vals.(i) <- v;
        { p with vals }
      end
      else
        let i = -(i + 1) in
        { keys = insert p.keys i k; vals = insert p.vals i v }

let of_arrays keys vals = { keys; vals }

let of_map ?(intern = Fun.id) m =
  let n = Smap.fold (fun _ v n -> if Value.is_null v then n else n + 1) m 0 in
  if n = 0 then empty
  else begin
    let keys = Array.make n "" and vals = Array.make n Value.Null in
    ignore
      (Smap.fold
         (fun k v i ->
           if Value.is_null v then i
           else begin
             keys.(i) <- k;
             vals.(i) <- v;
             i + 1
           end)
         m 0);
    { keys = intern keys; vals }
  end

(** [of_list l] builds a property map, dropping [null]-valued pairs. *)
let of_list l = of_map (smap_of_list l)

let to_map p =
  let m = ref Smap.empty in
  Array.iteri (fun i k -> m := Smap.add k p.vals.(i) !m) p.keys;
  !m

let bindings p = List.init (Array.length p.keys) (fun i -> (p.keys.(i), p.vals.(i)))
let keys p = Array.to_list p.keys
let iter f p = Array.iteri (fun i k -> f k p.vals.(i)) p.keys

(** Strict equality of property maps (null-free by construction, so
    structural equality of stored values suffices).  This is the equality
    used by the collapsibility relation of Section 8.2: ι′(x1,k) =
    ι′(x2,k) for every key k, where absent keys are null on both sides. *)
let equal p1 p2 =
  let n = Array.length p1.keys in
  let rec go i =
    i = n
    || (String.equal p1.keys.(i) p2.keys.(i)
       && Value.equal_strict p1.vals.(i) p2.vals.(i)
       && go (i + 1))
  in
  n = Array.length p2.keys && go 0

let changes p1 p2 =
  let n1 = Array.length p1.keys and n2 = Array.length p2.keys in
  let rec go i j set removed =
    if i = n1 then (set + n2 - j, removed)
    else if j = n2 then (set, removed + n1 - i)
    else
      let c = String.compare p1.keys.(i) p2.keys.(j) in
      if c < 0 then go (i + 1) j set (removed + 1)
      else if c > 0 then go i (j + 1) (set + 1) removed
      else
        let same = Value.equal_strict p1.vals.(i) p2.vals.(j) in
        go (i + 1) (j + 1) (if same then set else set + 1) removed
  in
  if p1 == p2 then (0, 0) else go 0 0 0 0

(* the order [Smap.compare Value.compare_total] gives: bindings compared
   pairwise in key order, a prefix first *)
let compare p1 p2 =
  let n1 = Array.length p1.keys and n2 = Array.length p2.keys in
  let rec go i =
    if i = n1 then if i = n2 then 0 else -1
    else if i = n2 then 1
    else
      let c = String.compare p1.keys.(i) p2.keys.(i) in
      if c <> 0 then c
      else
        let c = Value.compare_total p1.vals.(i) p2.vals.(i) in
        if c <> 0 then c else go (i + 1)
  in
  go 0

(** Hash compatible with {!compare} (and hence with {!equal}): equal
    property maps hash equally. *)
let hash p =
  let acc = ref 0x9e3779b9 in
  Array.iteri
    (fun i k ->
      acc := ((!acc * 31) + (Hashtbl.hash k * 31)) + Value.hash_total p.vals.(i))
    p.keys;
  !acc

let to_value p = Value.Map (to_map p)
let shares_keys p1 p2 = p1.keys == p2.keys

let is_canonical p =
  let n = Array.length p.keys in
  let rec ascending i =
    i >= n || (String.compare p.keys.(i - 1) p.keys.(i) < 0 && ascending (i + 1))
  in
  n = Array.length p.vals && ascending 1 && not (Array.exists Value.is_null p.vals)

let pp ppf p =
  Fmt.pf ppf "{%a}"
    Fmt.(
      list ~sep:(any ", ") (fun ppf (k, v) -> pf ppf "%s: %a" k Value.pp v))
    (bindings p)
