(** The store's id sets against [Iset] as a model: every operation
    agrees with the tree, and every result is in the form its contents
    decide ({!Ids.is_canonical}) with a cardinal a recount confirms. *)

open Cypher_graph
open Cypher_util.Maps
open Test_util

type op =
  | Add of int
  | Remove of int
  | Union of int list
  | Diff of int list
  | Mem of int

let pp_op = function
  | Add x -> Printf.sprintf "add %d" x
  | Remove x -> Printf.sprintf "remove %d" x
  | Union l -> "union " ^ String.concat "," (List.map string_of_int l)
  | Diff l -> "diff " ^ String.concat "," (List.map string_of_int l)
  | Mem x -> Printf.sprintf "mem %d" x

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

let arb_ops =
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
         arb_ops model_prop);
    case "add and remove of nothing return the set itself" (fun () ->
        List.iter
          (fun n ->
            let s = ids_of (range n) in
            Alcotest.(check bool) (Printf.sprintf "add, %d ids" n) true (n = 0 || Ids.add 0 s == s);
            Alcotest.(check bool) (Printf.sprintf "remove, %d ids" n) true (Ids.remove 99 s == s))
          [ 0; 1; 2; 16; 17; 40 ]);
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
        (* a tree node per id, as every set took before *)
        Alcotest.(check int) "seventeen ids" (3 + (5 * 17)) (words 17));
  ]
