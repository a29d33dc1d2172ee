(** Property-index value maps against [Map] (under the total value
    order) as a model: lookups, inserts and removals agree, every map
    passes {!Vindex.check}, and an update returns the map itself when
    it changes nothing.  Keys include [1] against [1.0] (one key under
    the total order), [-0.0] and nan. *)

open Cypher_graph
open Cypher_util.Maps
open Test_util

module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

type op = Add of Value.t * int | Remove of Value.t * int | Find of Value.t | Rebuild

let pp_op = function
  | Add (v, id) -> Printf.sprintf "add %s:%d" (Value.to_string v) id
  | Remove (v, id) -> Printf.sprintf "remove %s:%d" (Value.to_string v) id
  | Find v -> "find " ^ Value.to_string v
  | Rebuild -> "rebuild"

(* ints near enough for leaves to split and join, the same numbers as
   floats, a few strings, and the odd floats *)
let gen_value =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Value.Int i) (int_bound 300));
        (2, map (fun i -> Value.Float (float_of_int i)) (int_bound 300));
        (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_bound 300));
        (1, map (fun i -> Value.String (string_of_int i)) (int_bound 40));
        (1, oneofl [ Value.Float Float.nan; Value.Float (-0.0); Value.Float 0.0; Value.Float Float.infinity ]);
      ])

let gen_op =
  QCheck.Gen.(
    let id = int_bound 40 in
    frequency
      [
        (8, map2 (fun v i -> Add (v, i)) gen_value id);
        (5, map2 (fun v i -> Remove (v, i)) gen_value id);
        (2, map (fun v -> Find v) gen_value);
        (1, return Rebuild);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 400) gen_op)

let add v id m =
  Vindex.update v (function None -> Some (Ids.singleton id) | Some s -> Some (Ids.add id s)) m

let remove v id m = Vindex.update v (Option.map (Ids.remove id)) m

let model_add v id r =
  Vmap.update v (function None -> Some (Iset.singleton id) | Some s -> Some (Iset.add id s)) r

let model_remove v id r =
  Vmap.update v
    (function
      | None -> None
      | Some s ->
          let s = Iset.remove id s in
          if Iset.is_empty s then None else Some s)
    r

let bindings m = Vindex.fold (fun v s acc -> (v, Ids.elements s) :: acc) m [] |> List.rev
let model_bindings r = List.map (fun (v, s) -> (v, Iset.elements s)) (Vmap.bindings r)

let same_bindings a b =
  List.equal (fun (v, s) (v', s') -> Value.compare_total v v' = 0 && s = s') a b

(* the map rebuilt from its bindings, as a batch builds it *)
let rebuild m =
  let b = Array.of_list (Vindex.fold (fun v s acc -> (v, s) :: acc) m [] |> List.rev) in
  Vindex.of_sorted (Array.map fst b) (Array.map snd b)

let model_prop ops =
  let step (ok, m, r) op =
    let m', r =
      match op with
      | Add (v, id) -> (add v id m, model_add v id r)
      | Remove (v, id) -> (remove v id m, model_remove v id r)
      | Find _ -> (m, r)
      | Rebuild -> (rebuild m, r)
    in
    let found v =
      Ids.elements (Vindex.find v m') = Option.fold ~none:[] ~some:Iset.elements (Vmap.find_opt v r)
    in
    let unchanged =
      match op with
      | Add (v, id) -> (not (Ids.mem id (Vindex.find v m))) || m' == m
      | Remove (v, id) -> Ids.mem id (Vindex.find v m) || m' == m
      | Find _ | Rebuild -> true
    in
    let probe = match op with Add (v, _) | Remove (v, _) | Find v -> v | Rebuild -> Value.Int 0 in
    ( ok && unchanged && Vindex.check m' = Ok ()
      && same_bindings (bindings m') (model_bindings r)
      && found probe && found (Value.Int 1) && found (Value.Float 1.0) && found (Value.Float Float.nan),
      m',
      r )
  in
  let ok, _, _ = List.fold_left step (true, Vindex.empty, Vmap.empty) ops in
  ok

let check_ok what m =
  match Vindex.check m with Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"Vindex agrees with Map under the total order" arb_ops
         model_prop);
    case "1 and 1.0 are one key, and so is every nan" (fun () ->
        let m = Vindex.empty |> add (Value.Int 1) 3 |> add (Value.Float 1.0) 5 in
        Alcotest.(check (list int)) "1" [ 3; 5 ] (Ids.elements (Vindex.find (Value.Int 1) m));
        Alcotest.(check (list int)) "1.0" [ 3; 5 ] (Ids.elements (Vindex.find (Value.Float 1.0) m));
        let m = m |> add (Value.Float Float.nan) 7 |> add (Value.Float (-.Float.nan)) 8 in
        Alcotest.(check (list int)) "nan" [ 7; 8 ]
          (Ids.elements (Vindex.find (Value.Float Float.nan) m));
        let m = remove (Value.Float 1.0) 3 m in
        Alcotest.(check (list int)) "1 after removing through 1.0" [ 5 ]
          (Ids.elements (Vindex.find (Value.Int 1) m));
        check_ok "mixed" m);
    case "5 000 values in and out, three levels deep, every step checked" (fun () ->
        let n = 5000 in
        (* a stride coprime to n visits every value out of order *)
        let value k = Value.Int (k * 2_003 mod n) in
        let m = ref Vindex.empty in
        for k = 0 to n - 1 do
          m := add (value k) k !m;
          if k mod 97 = 0 then check_ok (Printf.sprintf "insert %d" k) !m
        done;
        check_ok "full" !m;
        Alcotest.(check int) "entries" n (Vindex.fold (fun _ _ n -> n + 1) !m 0);
        let built = rebuild !m in
        check_ok "rebuilt" built;
        Alcotest.(check bool) "rebuilt binds the same" true (same_bindings (bindings built) (bindings !m));
        List.iter
          (fun (what, start) ->
            let m = ref start in
            for k = 0 to n - 1 do
              m := remove (value k) k !m;
              if k mod 89 = 0 then check_ok (Printf.sprintf "%s, remove %d" what k) !m
            done;
            Alcotest.(check bool) (what ^ ": empty") true (Vindex.is_empty !m))
          [ ("inserted", !m); ("rebuilt", built) ]);
    case "an update that changes nothing returns the map itself" (fun () ->
        let m = Vindex.of_sorted (Array.init 100 (fun i -> Value.Int i)) (Array.init 100 Ids.singleton) in
        Alcotest.(check bool) "add present" true (add (Value.Int 40) 40 m == m);
        Alcotest.(check bool) "add present through 40.0" true (add (Value.Float 40.0) 40 m == m);
        Alcotest.(check bool) "remove absent id" true (remove (Value.Int 40) 41 m == m);
        Alcotest.(check bool) "remove absent value" true (remove (Value.Int 400) 1 m == m));
    case "a packed map of 20 000 unique values takes under 4.3 words an entry" (fun () ->
        let n = 20_000 in
        let keys = Array.init n (fun i -> Value.Int i) in
        let m = Vindex.of_sorted keys (Array.init n Ids.singleton) in
        check_ok "packed" m;
        (* the values themselves are the nodes' and not counted *)
        let own = Obj.reachable_words (Obj.repr m) - Obj.reachable_words (Obj.repr keys) + (1 + n) in
        Alcotest.(check int) "words" own (Vindex.words m);
        Alcotest.(check bool) (Printf.sprintf "%d words" own) true (own * 10 < n * 43));
  ]
