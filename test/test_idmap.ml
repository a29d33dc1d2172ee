(** The store's id-keyed tries against [Imap] as a model: every
    operation agrees with the tree, every result has the shape its keys
    decide ({!Idmap.check}, and equality with the same bindings built
    afresh), and an update leaves the map it came from intact.  Then
    the words a map takes, and that a value removed from the store is
    no longer reachable from it. *)

open Cypher_graph
open Cypher_util.Maps
open Test_util

type op =
  | Add of int * int
  | Remove of int
  | Bump of int  (** [update]: absent -> 1, a multiple of 3 -> unbound, else + 1 *)
  | Find of int
  | Batch of (int * int) list  (** strictly ascending keys, onto the map *)
  | Fresh of int list  (** gaps above the largest key: a batch of fresh ids *)

let pp_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Bump k -> Printf.sprintf "bump %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Batch l -> "batch " ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)
  | Fresh l -> "fresh " ^ String.concat "," (List.map string_of_int l)

(* mostly a dense range that adds and removes keep crossing leaf
   boundaries in, some ids a few levels up, some around 2^15, a few up
   to 2^40 *)
let gen_key =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 200);
        (2, int_bound 5000);
        (1, int_range ((1 lsl 15) - 40) ((1 lsl 15) + 40));
        (1, int_bound (1 lsl 40));
      ])

let gen_batch =
  QCheck.Gen.(
    let sorted l = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) l in
    frequency
      [
        (2, map sorted (list_size (int_bound 40) (pair gen_key small_nat)));
        (* a dense run, as a load's ids come *)
        ( 1,
          map2 (fun start len -> List.init len (fun i -> (start + i, i))) gen_key (int_bound 100) );
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) gen_key small_nat);
        (4, map (fun k -> Remove k) gen_key);
        (2, map (fun k -> Bump k) gen_key);
        (1, map (fun k -> Find k) gen_key);
        (1, map (fun l -> Batch l) gen_batch);
        (1, map (fun l -> Fresh l) (list_size (int_bound 70) (int_range 1 3)));
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 80) gen_op)

let bump = function None -> Some 1 | Some x when x mod 3 = 0 -> None | Some x -> Some (x + 1)

(* the same bindings built afresh: a map of the same shape iff the shape
   is decided by the keys alone *)
let rebuilt model =
  let a = Array.of_list (Imap.bindings model) in
  Idmap.add_ascending (Array.length a) (fun i -> fst a.(i)) (fun i _ -> snd a.(i)) Idmap.empty

let agrees m model =
  let bindings = Imap.bindings model in
  Idmap.check m = Ok ()
  && Idmap.cardinal m = Imap.cardinal model
  && List.rev (Idmap.fold (fun k v acc -> (k, v) :: acc) m []) = bindings
  && Idmap.fold_desc (fun k v acc -> (k, v) :: acc) m [] = bindings
  && m = rebuilt model

(* a batch of [l] onto [m]: [f] sees the old binding, as the adjacency
   batch merges a node's old buckets with its new ones *)
let batch l m model =
  let a = Array.of_list l in
  let f i old = snd a.(i) + Option.value old ~default:1000 in
  ( Idmap.add_ascending (Array.length a) (fun i -> fst a.(i)) f m,
    List.fold_left
      (fun model (k, v) ->
        Imap.update k (fun old -> Some (v + Option.value old ~default:1000)) model)
      model l )

let model_prop ops =
  let step (ok, m, model) op =
    let m', model', ok =
      match op with
      | Add (k, v) -> (Idmap.add k v m, Imap.add k v model, ok)
      | Remove k -> (Idmap.remove k m, Imap.remove k model, ok)
      | Bump k -> (Idmap.update k bump m, Imap.update k bump model, ok)
      | Find k ->
          let found = Idmap.find_opt k m = Imap.find_opt k model in
          (m, model, ok && found && Idmap.mem k m = Imap.mem k model)
      | Batch l ->
          let m', model' = batch l m model in
          (m', model', ok)
      | Fresh gaps ->
          let top = match Imap.max_binding_opt model with Some (k, _) -> k | None -> -1 in
          let _, fresh =
            List.fold_left (fun (k, acc) g -> (k + g, (k + g, (k + g) land 7) :: acc)) (top, []) gaps
          in
          let m', model' = batch (List.rev fresh) m model in
          (m', model', ok)
    in
    (* the map the step started from still reads as before *)
    (ok && agrees m' model' && agrees m model, m', model')
  in
  let ok, _, _ = List.fold_left step (true, Idmap.empty, Imap.empty) ops in
  ok

(* [ops] applied to [m], without a model *)
let apply ops m =
  List.fold_left
    (fun m op ->
      match op with
      | Add (k, v) -> Idmap.add k v m
      | Remove k -> Idmap.remove k m
      | Bump k -> Idmap.update k bump m
      | Find _ -> m
      | Batch l -> fst (batch l m Imap.empty)
      | Fresh gaps ->
          let top = Idmap.fold (fun k _ _ -> k) m (-1) in
          let _, fresh =
            List.fold_left (fun (k, acc) g -> (k + g, (k + g, (k + g) land 7) :: acc)) (top, []) gaps
          in
          fst (batch (List.rev fresh) m Imap.empty))
    m ops

(* [b] derived from [a] (sharing its untouched subtrees) or built on its
   own, then with every key from 1024 up removed when [truncate] is set,
   which lowers the root of a map that reached past it *)
let arb_diff_case =
  QCheck.make
    ~print:(fun (ops_a, ops_b, derived, truncate) ->
      Printf.sprintf "a: %s\nb (%s%s): %s"
        (String.concat "; " (List.map pp_op ops_a))
        (if derived then "from a" else "from empty")
        (if truncate then ", truncated" else "")
        (String.concat "; " (List.map pp_op ops_b)))
    QCheck.Gen.(
      quad (list_size (int_range 1 60) gen_op) (list_size (int_range 0 20) gen_op) bool bool)

(* [fold_diff] calls [f] on exactly the keys whose bindings differ, in
   ascending order, with both bindings; an [int] binding is physically
   equal to another exactly when the two are equal *)
let diff_prop (ops_a, ops_b, derived, truncate) =
  let a = apply ops_a Idmap.empty in
  let b = apply ops_b (if derived then a else Idmap.empty) in
  let b =
    if truncate then Idmap.fold (fun k _ m -> if k >= 1024 then Idmap.remove k m else m) b b
    else b
  in
  let keys_of m s = Idmap.fold (fun k _ s -> Iset.add k s) m s in
  let keys = Iset.elements (keys_of b (keys_of a Iset.empty)) in
  let expected =
    List.filter_map
      (fun k ->
        let x = Idmap.find_opt k a and y = Idmap.find_opt k b in
        if x = y then None else Some (k, x, y))
      keys
  in
  let calls = List.rev (Idmap.fold_diff (fun k x y acc -> (k, x, y) :: acc) a b []) in
  Idmap.check b = Ok () && calls = expected

let of_range lo hi = Idmap.add_ascending (hi - lo) (fun i -> lo + i) (fun i _ -> i) Idmap.empty

(* [watch_removal build remove] builds a graph and the record [remove]
   drops from it, attaches a finaliser to that record and returns the
   flag the finaliser sets with the new graph; nothing else holds the
   old graph once this returns *)
let watch_removal build remove =
  let collected = ref false in
  let g' =
    let g, record = build () in
    Gc.finalise (fun _ -> collected := true) record;
    remove g
  in
  (collected, g')

(* six nodes in one leaf (ids 0-5) and three relationships between
   them (ids 6-8); node 5 has none *)
let chain () =
  let g = ref Graph.empty in
  let ids =
    List.init 6 (fun i ->
        let props = Props.of_list [ ("i", vint i) ] in
        let id, g' = Graph.create_node ~labels:[ "N" ] ~props !g in
        g := g';
        id)
  in
  let rels =
    List.map
      (fun (a, b) ->
        let r, g' = Graph.create_rel ~src:(List.nth ids a) ~tgt:(List.nth ids b) ~r_type:"T" !g in
        g := g';
        r)
      [ (0, 1); (1, 2); (3, 4) ]
  in
  (!g, ids, rels)

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"Idmap agrees with Imap, dense, sparse and in batches"
         arb_ops model_prop);
    case "a dense run takes 1.16 words per binding, and words counts every block" (fun () ->
        let m = of_range 0 1024 in
        (* 32 full leaves of 4 + 32 words, one full root of 4 + 32, the
           4-word map record *)
        Alcotest.(check int) "words" ((32 * 36) + 36 + 4) (Idmap.words m);
        List.iter
          (fun (lo, hi) ->
            let m = of_range lo hi in
            Alcotest.(check int)
              (Printf.sprintf "reachable words of %d .. %d" lo hi)
              (Obj.reachable_words (Obj.repr m))
              (Idmap.words m))
          [ (0, 1); (5, 37); (1000, 1100); (1 lsl 40, (1 lsl 40) + 3) ]);
    case "removing an unbound key returns the map itself; negative keys are unbound" (fun () ->
        let m = of_range 10 50 in
        Alcotest.(check bool) "remove absent" true (Idmap.remove 60 m == m);
        Alcotest.(check bool) "update absent to absent" true
          (Idmap.update 60 (fun _ -> None) m == m);
        Alcotest.(check (option int)) "find -1" None (Idmap.find_opt (-1) m);
        Alcotest.(check bool) "mem min_int" false (Idmap.mem min_int m);
        Alcotest.check_raises "add -1" (Invalid_argument "Idmap.add: negative key") (fun () ->
            ignore (Idmap.add (-1) 0 m)));
    case "add_ascending refuses keys that do not ascend" (fun () ->
        let keys = [| 3; 3 |] in
        Alcotest.check_raises "repeated key"
          (Invalid_argument "Idmap.add_ascending: keys do not ascend") (fun () ->
            ignore (Idmap.add_ascending 2 (fun i -> keys.(i)) (fun _ _ -> ()) Idmap.empty)));
    case "the root lowers as the large keys go" (fun () ->
        let m = Idmap.add (1 lsl 40) 0 (of_range 0 40) in
        let m = Idmap.remove (1 lsl 40) m in
        Alcotest.(check bool) "same shape as built afresh" true (m = of_range 0 40);
        Alcotest.(check bool) "empty after the last" true
          (Idmap.remove 0 (Idmap.add 0 0 Idmap.empty) = Idmap.empty));
    case "a removed node or relationship record is collected while the new graph lives" (fun () ->
        let node_gone, g1 =
          watch_removal
            (fun () ->
              let g, ids, _ = chain () in
              (g, Graph.node_exn g (List.nth ids 5)))
            (fun g ->
              match Graph.remove_node g 5 with
              | Ok g -> g
              | Error _ -> Alcotest.fail "node 5 is attached")
        in
        let rel_gone, g2 =
          watch_removal
            (fun () ->
              let g, _, rels = chain () in
              (g, Graph.rel_exn g (List.nth rels 1)))
            (fun g -> Graph.remove_rel g 7)
        in
        Gc.full_major ();
        Gc.full_major ();
        Alcotest.(check bool) "node record collected" true !node_gone;
        Alcotest.(check bool) "relationship record collected" true !rel_gone;
        (* both new graphs are still live here, and hold what they should *)
        Alcotest.(check int) "nodes left" 5 (Graph.node_count g1);
        Alcotest.(check (list int)) "relationships left" [ 6; 8 ] (Graph.rel_ids g2));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"fold_diff visits the keys whose bindings differ, in order, against find_opt"
         arb_diff_case diff_prop);
    case "fold_diff skips what the two maps share" (fun () ->
        (* boxed values: equal bindings the maps do not share would be
           visited *)
        let m =
          Idmap.add_ascending 3000 (fun i -> i * 11) (fun i _ -> ref i) Idmap.empty
        in
        let visits a b = List.rev (Idmap.fold_diff (fun k _ _ acc -> k :: acc) a b []) in
        Alcotest.(check (list int)) "a map against itself" [] (visits m m);
        Alcotest.(check (list int)) "one updated key" [ 5500 ] (visits m (Idmap.add 5500 (ref 0) m));
        Alcotest.(check (list int)) "one removed key" [ 22 ] (visits m (Idmap.remove 22 m));
        (* keys reach past 2^15: the root sits at shift 15 *)
        Alcotest.(check (list int))
          "a key that raises the root" [ 1 lsl 20 ]
          (visits m (Idmap.add (1 lsl 20) (ref 0) m));
        Alcotest.(check (list int))
          "the same key, the higher root first" [ 1 lsl 20 ]
          (visits (Idmap.add (1 lsl 20) (ref 0) m) m));
  ]
