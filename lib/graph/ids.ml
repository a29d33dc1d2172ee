(** Compact id sets; see the interface. *)

type t =
  | Empty
  | One of int
  | Small of int array  (** strictly ascending, 2 .. [small_max] ids *)
  | Tree of { card : int; map : int Idmap.t }
      (** above [small_max] ids: [map] binds each word [w] to the nonzero
          bitmap of the ids present among [w lsl Idmap.level] and the
          next 31 *)

(* 81% of the benchmark store's adjacency buckets hold at most 4 ids;
   at 16 an array already saves nearly all a larger threshold would
   (DESIGN.md, "Server memory") *)
let small_max = 16

(* ids per bitmap: 32 *)
let span = 1 lsl Idmap.level

(* an id's word (its bitmap's key) and its bit in that bitmap *)
let word x = x lsr Idmap.level
let bit x = 1 lsl (x land (span - 1))

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

(* the trie of the strictly ascending [a], of more than [small_max]
   ids: one bitmap per run of ids sharing a word, and the words, which
   ascend, in one [Idmap.add_ascending] *)
let tree_of_sorted a =
  let n = Array.length a in
  let words = ref 1 in
  for i = 1 to n - 1 do
    if word a.(i) <> word a.(i - 1) then incr words
  done;
  let keys = Array.make !words (word a.(0)) and bits = Array.make !words 0 and w = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 && word a.(i) <> word a.(i - 1) then begin
      incr w;
      keys.(!w) <- word a.(i)
    end;
    bits.(!w) <- bits.(!w) lor bit a.(i)
  done;
  Tree { card = n; map = Idmap.add_ascending !words (Array.get keys) (fun i _ -> bits.(i)) Idmap.empty }

let of_sorted a =
  match Array.length a with
  | 0 -> Empty
  | 1 -> One a.(0)
  | n when n <= small_max -> Small a
  | _ -> tree_of_sorted a

(* the bitmap of [x]'s word, 0 when the word is absent *)
let bits_of x map = match Idmap.find_opt (word x) map with Some b -> b | None -> 0

let mem x = function
  | Empty -> false
  | One y -> x = y
  | Small a -> search x a >= 0
  | Tree t -> bits_of x t.map land bit x <> 0

(* [f] over the ids of bitmap [b] of word [w], ascending *)
let fold_bits f w b acc =
  let acc = ref acc and b = ref b and x = ref (w lsl Idmap.level) in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := f !x !acc;
    b := !b lsr 1;
    incr x
  done;
  !acc

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
  | Tree t -> Idmap.fold (fun w b acc -> fold_bits f w b acc) t.map acc

let elements = function
  | Empty -> []
  | One x -> [ x ]
  | Small a -> Array.to_list a
  | Tree t ->
      (* bitmaps in descending word order, each bit from the top *)
      Idmap.fold_desc
        (fun w b acc ->
          let acc = ref acc in
          for s = span - 1 downto 0 do
            if b land (1 lsl s) <> 0 then acc := ((w lsl Idmap.level) lor s) :: !acc
          done;
          !acc)
        t.map []

let add x s =
  match s with
  | Empty -> One x
  | One y -> if x = y then s else Small (if x < y then [| x; y |] else [| y; x |])
  | Small a ->
      let i = search x a in
      if i >= 0 then s
      else
        let i = -(i + 1) and n = Array.length a in
        let b = Array.make (n + 1) x in
        Array.blit a 0 b 0 i;
        Array.blit a i b (i + 1) (n - i);
        if n = small_max then tree_of_sorted b else Small b
  | Tree t ->
      let old = bits_of x t.map in
      if old land bit x <> 0 then s
      else Tree { card = t.card + 1; map = Idmap.add (word x) (old lor bit x) t.map }

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
      let old = bits_of x t.map in
      if old land bit x = 0 then s
      else if t.card - 1 > small_max then
        let b = old land lnot (bit x) in
        Tree
          {
            card = t.card - 1;
            map = (if b = 0 then Idmap.remove (word x) t.map else Idmap.add (word x) b t.map);
          }
      else Small (Array.of_list (List.filter (( <> ) x) (elements s)))

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

(* the union of two trees: [small]'s bitmaps or-ed into [big]'s map in
   one [Idmap.add_ascending], and [big] itself when that adds no id *)
let tree_union big small =
  match (big, small) with
  | Tree b, Tree s ->
      let n = Idmap.cardinal s.map in
      let keys = Array.make n 0 and bits = Array.make n 0 and i = ref 0 in
      Idmap.fold
        (fun w m () ->
          keys.(!i) <- w;
          bits.(!i) <- m;
          incr i)
        s.map ();
      let added = ref 0 in
      let map =
        Idmap.add_ascending n (Array.get keys)
          (fun i old ->
            let old = Option.value old ~default:0 in
            let m = old lor bits.(i) in
            added := !added + Idmap.popcount m - Idmap.popcount old;
            m)
          b.map
      in
      if !added = 0 then big
      else if b.card + !added = s.card then small
      else Tree { card = b.card + !added; map }
  | _ -> invalid_arg "Ids.tree_union"

let union s1 s2 =
  match (s1, s2) with
  | Empty, s | s, Empty -> s
  | Tree t1, Tree t2 ->
      if Idmap.cardinal t1.map >= Idmap.cardinal t2.map then tree_union s1 s2
      else tree_union s2 s1
  | (Tree _ as big), small | small, (Tree _ as big) -> fold add small big
  | One x, s | s, One x -> add x s
  | Small a, Small b -> of_sorted (merge a b)

let diff s1 s2 = fold remove s2 s1

(* a variant's own block is its header plus one word per field *)
let words = function
  | Empty -> 0
  | One _ -> 2
  | Small a -> 2 + 1 + Array.length a
  | Tree t -> 3 + Idmap.words t.map

let is_canonical = function
  | Empty | One _ -> true
  | Small a ->
      let n = Array.length a in
      let rec ascending i = i >= n || (a.(i - 1) < a.(i) && ascending (i + 1)) in
      n >= 2 && n <= small_max && ascending 1
  | Tree t ->
      let bitmaps_ok, recount =
        Idmap.fold
          (fun _ b (ok, n) -> (ok && b > 0 && b lsr span = 0, n + Idmap.popcount b))
          t.map (true, 0)
      in
      t.card > small_max && Idmap.check t.map = Ok () && bitmaps_ok && recount = t.card
