(** The store's id sets against [Iset] as a model: every operation
    agrees with the tree, and every result is in the form its contents
    decide ({!Ids.is_canonical}) with a cardinal a recount confirms.
    Ids come from a small dense range, from runs that straddle a 32-id
    bitmap and a 1 024-id trie node, and from sparse ids up to 2^40. *)

open Cypher_graph
open Cypher_util.Maps
open Test_util

type op =
  | Add of int
  | Remove of int
  | Union of int list
  | Diff of int list
  | Mem of int
  | Run of int * int  (** union with the [len] ids from [lo] *)
  | Cut of int * int  (** diff with the [len] ids from [lo] *)

let pp_op = function
  | Add x -> Printf.sprintf "add %d" x
  | Remove x -> Printf.sprintf "remove %d" x
  | Union l -> "union " ^ String.concat "," (List.map string_of_int l)
  | Diff l -> "diff " ^ String.concat "," (List.map string_of_int l)
  | Mem x -> Printf.sprintf "mem %d" x
  | Run (lo, len) -> Printf.sprintf "run %d+%d" lo len
  | Cut (lo, len) -> Printf.sprintf "cut %d+%d" lo len

(* ids from 40 values: adds and removes settle near 20 ids, so a run
   crosses the array/tree boundary at 16 in both directions *)
let gen_op =
  QCheck.Gen.(
    let id = int_bound 39 and ids = list_size (int_bound 24) (int_bound 39) in
    frequency
      [
        (4, map (fun x -> Add x) id);
        (4, map (fun x -> Remove x) id);
        (1, map (fun l -> Union l) ids);
        (1, map (fun l -> Diff l) ids);
        (1, map (fun x -> Mem x) id);
      ])

(* ids that straddle bitmap and trie-node boundaries: near 32 and 64
   (one leaf bitmap to the next), near 1 024 (one Idmap leaf, which
   holds 32 bitmaps, to the next) and sparse ids whose bitmaps each
   sit alone under their own path *)
let gen_wide_id =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 20 75);
        (3, int_range 1000 1090);
        (2, int_bound 5000);
        (1, int_bound (1 lsl 40));
      ])

let gen_wide_op =
  QCheck.Gen.(
    let run = pair gen_wide_id (int_range 1 70) in
    frequency
      [
        (4, map (fun x -> Add x) gen_wide_id);
        (4, map (fun x -> Remove x) gen_wide_id);
        (1, map (fun l -> Union l) (list_size (int_bound 24) gen_wide_id));
        (1, map (fun l -> Diff l) (list_size (int_bound 24) gen_wide_id));
        (1, map (fun x -> Mem x) gen_wide_id);
        (1, map (fun (lo, len) -> Run (lo, len)) run);
        (2, map (fun (lo, len) -> Cut (lo, len)) run);
      ])

let arb_of gen_op =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 120) gen_op)

(* operands alternate between the two constructors a caller has *)
let ids_of l =
  if List.length l mod 2 = 0 then Ids.of_sorted (Array.of_list (List.sort_uniq Int.compare l))
  else List.fold_left (fun s x -> Ids.add x s) Ids.empty l

let agrees s model =
  Ids.is_canonical s
  && Ids.cardinal s = Ids.fold (fun _ n -> n + 1) s 0
  && Ids.elements s = Iset.elements model
  && Ids.fold List.cons s [] = Iset.fold List.cons model []

let model_prop ops =
  let step (ok, s, model) op =
    let s, model, ok =
      match op with
      | Add x -> (Ids.add x s, Iset.add x model, ok)
      | Remove x -> (Ids.remove x s, Iset.remove x model, ok)
      | Union l -> (Ids.union s (ids_of l), Iset.union model (Iset.of_list l), ok)
      | Diff l -> (Ids.diff s (ids_of l), Iset.diff model (Iset.of_list l), ok)
      | Mem x -> (s, model, ok && Ids.mem x s = Iset.mem x model)
      | Run (lo, len) ->
          let run = List.init len (( + ) lo) in
          (Ids.union s (ids_of run), Iset.union model (Iset.of_list run), ok)
      | Cut (lo, len) ->
          let run = List.init len (( + ) lo) in
          (Ids.diff s (ids_of run), Iset.diff model (Iset.of_list run), ok)
    in
    (ok && agrees s model, s, model)
  in
  let ok, _, _ = List.fold_left step (true, Ids.empty, Iset.empty) ops in
  ok

let range n = List.init n Fun.id

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"Ids agrees with Iset across the array/tree boundary"
         (arb_of gen_op) model_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"Ids agrees with Iset on runs across bitmaps and trie nodes, and on sparse ids"
         (arb_of gen_wide_op) model_prop);
    case "add and remove of nothing return the set itself" (fun () ->
        List.iter
          (fun n ->
            let s = ids_of (range n) in
            Alcotest.(check bool) (Printf.sprintf "add, %d ids" n) true (n = 0 || Ids.add 0 s == s);
            Alcotest.(check bool) (Printf.sprintf "remove, %d ids" n) true (Ids.remove 99 s == s))
          [ 0; 1; 2; 16; 17; 40 ]);
    case "add and remove of nothing return a trie itself, across bitmaps and paths" (fun () ->
        List.iter
          (fun ids ->
            let s = Ids.of_sorted (Array.of_list ids) in
            List.iter
              (fun x ->
                Alcotest.(check bool) (Printf.sprintf "add %d" x) true (Ids.add x s == s);
                Alcotest.(check bool) (Printf.sprintf "remove %d" (x + 1)) true
                  (List.mem (x + 1) ids || Ids.remove (x + 1) s == s))
              ids;
            List.iter
              (fun x ->
                Alcotest.(check bool) (Printf.sprintf "remove absent %d" x) true (Ids.remove x s == s))
              [ 31; 33; 1023; 1025; 1 lsl 30 ])
          [
            List.init 40 (fun i -> 2 * i);
            List.init 20 (fun i -> 1000 + (3 * i));
            List.init 20 (fun i -> (i * 5003) + 7);
          ]);
    case "a trie union that adds nothing is the larger set itself" (fun () ->
        let big = Ids.of_sorted (Array.init 100 (fun i -> 10 + i)) in
        let part = Ids.of_sorted (Array.init 20 (fun i -> 40 + i)) in
        Alcotest.(check bool) "big ∪ part" true (Ids.union big part == big);
        Alcotest.(check bool) "part ∪ big" true (Ids.union part big == big));
    case "the trie form follows the cardinal at 16 across a bitmap boundary" (fun () ->
        (* ids 24 .. 39 straddle the bitmaps of words 0 and 1 *)
        let s16 = Ids.of_sorted (Array.init 16 (( + ) 24)) in
        let s17 = Ids.add 1030 s16 in
        Alcotest.(check bool) "promoted" true (Ids.is_canonical s17);
        Alcotest.(check int) "17 ids" 17 (Ids.cardinal s17);
        let back = Ids.remove 24 s17 in
        Alcotest.(check bool) "demoted" true (Ids.is_canonical back);
        Alcotest.(check int) "words of 16 ids as an array" 19 (Ids.words back);
        Alcotest.(check (list int)) "contents"
          (List.init 15 (( + ) 25) @ [ 1030 ])
          (Ids.elements back));
    case "a union with the empty set is the other set itself" (fun () ->
        List.iter
          (fun n ->
            let s = ids_of (range n) and what = Printf.sprintf "%s, %d ids" in
            Alcotest.(check bool) (what "right" n) true (Ids.union s Ids.empty == s);
            Alcotest.(check bool) (what "left" n) true (Ids.union Ids.empty s == s))
          [ 1; 2; 16; 17; 40 ]);
    case "the form follows the cardinal at 16" (fun () ->
        let s16 = ids_of (range 16) in
        let s17 = Ids.add 16 s16 in
        Alcotest.(check int) "17 ids" 17 (Ids.cardinal s17);
        Alcotest.(check bool) "promoted" true (Ids.is_canonical s17);
        let back = Ids.remove 3 s17 in
        Alcotest.(check bool) "demoted" true (Ids.is_canonical back);
        Alcotest.(check (list int)) "contents"
          (List.filter (( <> ) 3) (range 17))
          (Ids.elements back));
    case "words per set: 2 for one id, 5 for two, 19 for sixteen" (fun () ->
        let words n = Obj.reachable_words (Obj.repr (ids_of (range n))) in
        Alcotest.(check int) "empty" 0 (words 0);
        Alcotest.(check int) "one id" 2 (words 1);
        Alcotest.(check int) "two ids" 5 (words 2);
        Alcotest.(check int) "sixteen ids" 19 (words 16);
        (* the trie's block, the Idmap record, one leaf and its one
           bitmap: a tree took 3 + 5 per id *)
        Alcotest.(check int) "seventeen ids" 12 (words 17));
    case "a dense run of 10 000 ids takes 374 words" (fun () ->
        let s = ids_of (range 10_000) in
        (* 313 bitmaps: nine full Idmap leaves of 4 + 32 words, one of
           4 + 25, a root of 4 + 10 over them, the Idmap record (4) and
           the set's block (3); a tree took 5 words per id *)
        Alcotest.(check int) "reachable words" 374 (Obj.reachable_words (Obj.repr s));
        Alcotest.(check int) "Ids.words" 374 (Ids.words s);
        Alcotest.(check int) "cardinal" 10_000 (Ids.cardinal s);
        Alcotest.(check bool) "canonical" true (Ids.is_canonical s));
  ]
