(** List helpers not present in the standard library. *)

(** [take n l] is the first [n] elements of [l] (or all of [l] if shorter). *)
let rec take n l =
  match (n, l) with
  | n, _ when n <= 0 -> []
  | _, [] -> []
  | n, x :: rest -> x :: take (n - 1) rest

(** [drop n l] is [l] without its first [n] elements. *)
let rec drop n l =
  match (n, l) with
  | n, l when n <= 0 -> l
  | _, [] -> []
  | n, _ :: rest -> drop (n - 1) rest

(** [index_of p l] is the index of the first element satisfying [p]. *)
let index_of p l =
  let rec loop i = function
    | [] -> None
    | x :: rest -> if p x then Some i else loop (i + 1) rest
  in
  loop 0 l

(** [interleave sep l] places [sep] between consecutive elements. *)
let rec interleave sep = function
  | [] -> []
  | [ x ] -> [ x ]
  | x :: rest -> x :: sep :: interleave sep rest

(** [all_distinct cmp l] checks that no two elements of [l] are equal
    under the ordering [cmp]. *)
let all_distinct cmp l =
  let sorted = List.sort cmp l in
  let rec loop = function
    | a :: (b :: _ as rest) -> if cmp a b = 0 then false else loop rest
    | [ _ ] | [] -> true
  in
  loop sorted

(** [permutation_of_seed seed l] is a deterministic pseudo-random
    permutation of [l] derived from [seed]; used to exercise
    order-(in)dependence of update semantics. *)
let permutation_of_seed seed l =
  let arr = Array.of_list l in
  let n = Array.length arr in
  let state = ref (seed lxor 0x9e3779b9) in
  let next_int bound =
    (* xorshift-style step; quality is irrelevant, determinism is not. *)
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s land max_int;
    !state mod bound
  in
  for i = n - 1 downto 1 do
    let j = next_int (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
