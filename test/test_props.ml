(** Property maps: the total ι function with null-as-absence. *)

open Cypher_graph
open Cypher_util.Maps
open Test_util

(* The reference: a null-free [Value.t Smap.t], as property maps were
   stored before they became key and value arrays.  [Quotient] groups
   MERGE SAME classes by [compare] and [hash], so those two must match
   the reference bit for bit, not merely agree in sign. *)
module Ref = struct
  let set m k v = if Value.is_null v then Smap.remove k m else Smap.add k v m
  let of_list l = List.fold_left (fun m (k, v) -> set m k v) Smap.empty l
  let compare = Smap.compare Value.compare_total
  let equal = Cypher_util.Maps.smap_equal Value.equal_strict

  let hash m =
    Smap.fold
      (fun k v acc -> ((acc * 31) + (Hashtbl.hash k * 31)) + Value.hash_total v)
      m 0x9e3779b9
end

type op =
  | Set of string * Value.t
  | Remove of string
  | Of_list of (string * Value.t) list

let pool_keys = [ "a"; "age"; "b"; "name"; "z" ]

let gen_binding =
  QCheck.Gen.(
    pair (oneofl pool_keys)
      (oneofl
         [
           Value.Null;
           Value.Int 1;
           Value.Int 2;
           Value.Float 1.0;
           Value.Float Float.nan;
           Value.String "x";
           Value.Bool true;
           Value.List [ Value.Int 1 ];
         ]))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun (k, v) -> Set (k, v)) gen_binding);
        (2, map (fun k -> Remove k) (oneofl pool_keys));
        (1, map (fun l -> Of_list l) (list_size (int_bound 6) gen_binding));
      ])

let pp_binding (k, v) = k ^ ": " ^ Value.to_string v

let pp_op = function
  | Set (k, v) -> "set " ^ pp_binding (k, v)
  | Remove k -> "remove " ^ k
  | Of_list l -> "of_list [" ^ String.concat ", " (List.map pp_binding l) ^ "]"

(* ops apply alternately to two maps, so comparisons meet equal,
   prefix-related and unrelated pairs *)
let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

let apply (p, m) = function
  | Set (k, v) -> (Props.set p k v, Ref.set m k v)
  | Remove k -> (Props.remove p k, Smap.remove k m)
  | Of_list l -> (Props.of_list l, Ref.of_list l)

let same_value v w = Value.compare_total v w = 0

let agrees (p, m) =
  Props.is_canonical p
  && List.equal
       (fun (k, v) (k', v') -> k = k' && same_value v v')
       (Props.bindings p) (Smap.bindings m)
  && Props.keys p = List.map fst (Smap.bindings m)
  && (let seen = ref [] in
      Props.iter (fun k v -> seen := (k, v) :: !seen) p;
      List.equal
        (fun (k, v) (k', v') -> k = k' && same_value v v')
        (List.rev !seen) (Smap.bindings m))
  && List.for_all
       (fun k ->
         same_value (Props.get p k)
           (match Smap.find_opt k m with Some v -> v | None -> Value.Null))
       pool_keys
  && Props.is_empty p = Smap.is_empty m
  && Props.hash p = Ref.hash m

let pair_agrees (p1, m1) (p2, m2) =
  Props.compare p1 p2 = Ref.compare m1 m2
  && Props.compare p2 p1 = Ref.compare m2 m1
  && Props.equal p1 p2 = Ref.equal m1 m2

let model_prop ops =
  let empty = (Props.empty, Smap.empty) in
  let _, _, ok =
    List.fold_left
      (fun (x, y, ok) op ->
        let x = apply x op in
        (y, x, ok && agrees x && pair_agrees x y))
      (empty, empty, true) ops
  in
  ok

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"Props agrees with a Value.t Smap.t reference" arb_ops
         model_prop);
    case "an update to a present key keeps the key array" (fun () ->
        let p = Props.of_list [ ("a", vint 1); ("b", vint 2) ] in
        Alcotest.(check bool) "set" true (Props.shares_keys p (Props.set p "a" (vint 9)));
        Alcotest.(check bool) "new key" false (Props.shares_keys p (Props.set p "c" (vint 3))));
    case "a 5-key map on a shared key array costs 9 words" (fun () ->
        let p =
          Props.of_list
            [ ("a", vint 1); ("b", vint 2); ("c", vint 3); ("d", vint 4); ("e", vint 5) ]
        in
        (* same keys, a value [p] already holds: only the 3-word record
           and the 6-word value array are new (a tree took 30 words) *)
        let q = Props.set p "a" (Props.get p "b") in
        let words x = Obj.reachable_words (Obj.repr x) in
        Alcotest.(check int) "words" 9 (words (p, q) - words (p, p)));
    case "absent key reads as null" (fun () ->
        check_value "empty" vnull (Props.get Props.empty "k"));
    case "set then get" (fun () ->
        let p = Props.set Props.empty "k" (vint 1) in
        check_value "k" (vint 1) (Props.get p "k"));
    case "setting null removes the key" (fun () ->
        let p = Props.set (Props.set Props.empty "k" (vint 1)) "k" vnull in
        Alcotest.(check bool) "empty again" true (Props.is_empty p));
    case "of_list drops null values" (fun () ->
        let p = Props.of_list [ ("a", vint 1); ("b", vnull) ] in
        Alcotest.(check (list string)) "keys" [ "a" ] (Props.keys p));
    case "equality ignores binding order" (fun () ->
        let p1 = Props.of_list [ ("a", vint 1); ("b", vint 2) ] in
        let p2 = Props.of_list [ ("b", vint 2); ("a", vint 1) ] in
        Alcotest.(check bool) "equal" true (Props.equal p1 p2));
    case "remove is idempotent" (fun () ->
        let p = Props.of_list [ ("a", vint 1) ] in
        let p1 = Props.remove p "a" in
        let p2 = Props.remove p1 "a" in
        Alcotest.(check bool) "equal" true (Props.equal p1 p2));
    case "keys are sorted" (fun () ->
        let p = Props.of_list [ ("z", vint 1); ("a", vint 2); ("m", vint 3) ] in
        Alcotest.(check (list string)) "sorted" [ "a"; "m"; "z" ] (Props.keys p));
  ]
