(** Compact id sets; see the interface. *)

open Cypher_util.Maps

type t =
  | Empty
  | One of int
  | Small of int array  (** strictly ascending, 2 .. [small_max] ids *)
  | Tree of { card : int; set : Iset.t }  (** above [small_max] ids *)

(* 81% of the benchmark store's adjacency buckets hold at most 4 ids;
   at 16 an array already saves nearly all a larger threshold would
   (DESIGN.md, "Server memory") *)
let small_max = 16

let empty = Empty
let is_empty = function Empty -> true | _ -> false
let singleton x = One x

let cardinal = function
  | Empty -> 0
  | One _ -> 1
  | Small a -> Array.length a
  | Tree t -> t.card

(* the index of [x] in the ascending [a], or [-(i + 1)] when [x] is
   absent and would go at index [i] *)
let search (x : int) a =
  let rec go lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) lsr 1 in
      let y = a.(mid) in
      if x = y then mid else if x < y then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length a)

(* the set of [a.(lo) .. a.(hi - 1)], ascending, by halving unions:
   ascending [add]s would copy the right spine each *)
let rec iset_of_sorted a lo hi =
  match hi - lo with
  | 0 -> Iset.empty
  | 1 -> Iset.singleton a.(lo)
  | len ->
      let mid = lo + (len / 2) in
      Iset.union (iset_of_sorted a lo mid) (iset_of_sorted a mid hi)

let of_sorted a =
  match Array.length a with
  | 0 -> Empty
  | 1 -> One a.(0)
  | n when n <= small_max -> Small a
  | n -> Tree { card = n; set = iset_of_sorted a 0 n }

let mem x = function
  | Empty -> false
  | One y -> x = y
  | Small a -> search x a >= 0
  | Tree t -> Iset.mem x t.set

(* Stdlib's [add]/[remove] return the set itself when nothing changed,
   which is what keeps the tree's cardinal exact *)
let add x s =
  match s with
  | Empty -> One x
  | One y -> if x = y then s else Small (if x < y then [| x; y |] else [| y; x |])
  | Small a ->
      let i = search x a in
      if i >= 0 then s
      else
        let i = -(i + 1) and n = Array.length a in
        if n = small_max then
          Tree { card = n + 1; set = Iset.add x (Iset.of_list (Array.to_list a)) }
        else begin
          let b = Array.make (n + 1) x in
          Array.blit a 0 b 0 i;
          Array.blit a i b (i + 1) (n - i);
          Small b
        end
  | Tree t ->
      let set = Iset.add x t.set in
      if set == t.set then s else Tree { card = t.card + 1; set }

let remove x s =
  match s with
  | Empty -> s
  | One y -> if x = y then Empty else s
  | Small a ->
      let i = search x a and n = Array.length a in
      if i < 0 then s
      else if n = 2 then One a.(1 - i)
      else begin
        let b = Array.make (n - 1) 0 in
        Array.blit a 0 b 0 i;
        Array.blit a (i + 1) b i (n - i - 1);
        Small b
      end
  | Tree t ->
      let set = Iset.remove x t.set in
      if set == t.set then s
      else if t.card - 1 > small_max then Tree { card = t.card - 1; set }
      else Small (Array.of_list (Iset.elements set))

let fold f s acc =
  match s with
  | Empty -> acc
  | One x -> f x acc
  | Small a ->
      let acc = ref acc in
      for i = 0 to Array.length a - 1 do
        acc := f a.(i) !acc
      done;
      !acc
  | Tree t -> Iset.fold f t.set acc

let elements = function
  | Empty -> []
  | One x -> [ x ]
  | Small a -> Array.to_list a
  | Tree t -> Iset.elements t.set

(* the ascending union of two strictly ascending arrays *)
let merge (a : int array) b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i = na then (
      Array.blit b j out k (nb - j);
      k + nb - j)
    else if j = nb then (
      Array.blit a i out k (na - i);
      k + na - i)
    else
      let x = a.(i) and y = b.(j) in
      out.(k) <- (if x <= y then x else y);
      go (if x <= y then i + 1 else i) (if y <= x then j + 1 else j) (k + 1)
  in
  let n = go 0 0 0 in
  if n = na + nb then out else Array.sub out 0 n

let union s1 s2 =
  match (s1, s2) with
  | Empty, s | s, Empty -> s
  | Tree t1, Tree t2 ->
      let set = Iset.union t1.set t2.set in
      if set == t1.set then s1
      else if set == t2.set then s2
      else Tree { card = Iset.cardinal set; set }
  | (Tree _ as big), small | small, (Tree _ as big) -> fold add small big
  | One x, s | s, One x -> add x s
  | Small a, Small b -> of_sorted (merge a b)

let diff s1 s2 = fold remove s2 s1

let is_canonical = function
  | Empty | One _ -> true
  | Small a ->
      let n = Array.length a in
      let rec ascending i = i >= n || (a.(i - 1) < a.(i) && ascending (i + 1)) in
      n >= 2 && n <= small_max && ascending 1
  | Tree t -> t.card > small_max && t.card = Iset.cardinal t.set
