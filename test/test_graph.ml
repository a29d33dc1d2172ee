(** The property-graph store: construction, adjacency, deletion flavours,
    deleted ids reading as absent and the dangling-relationship
    diagnostics. *)

open Cypher_graph
open Test_util

let two_nodes_one_rel () =
  let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
  let b, g = Graph.create_node ~labels:[ "B" ] g in
  let r, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
  (g, a, b, r)

let suite =
  [
    case "create_node assigns fresh ids" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        Alcotest.(check bool) "distinct" true (a <> b);
        Alcotest.(check int) "count" 2 (Graph.node_count g));
    case "labels and properties are stored" (fun () ->
        let props = Props.of_list [ ("x", vint 7) ] in
        let a, g = Graph.create_node ~labels:[ "L1"; "L2" ] ~props Graph.empty in
        Alcotest.(check (list string)) "labels" [ "L1"; "L2" ] (Graph.labels_of g a);
        check_value "prop" (vint 7) (Props.get (Graph.node_props_of g a) "x"));
    case "create_rel wires adjacency" (fun () ->
        let g, a, b, r = two_nodes_one_rel () in
        Alcotest.(check int) "out degree a" 1 (List.length (Graph.out_rels g a));
        Alcotest.(check int) "in degree b" 1 (List.length (Graph.in_rels g b));
        Alcotest.(check int) "rel id" r (List.hd (Graph.out_rels g a)).Graph.r_id);
    case "create_rel rejects missing endpoints" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        Alcotest.check_raises "missing target"
          (Invalid_argument "Graph.create_rel: no target node 99") (fun () ->
            ignore (Graph.create_rel ~src:a ~tgt:99 ~r_type:"T" g)));
    case "strict remove_node refuses attached relationships" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        match Graph.remove_node g a with
        | Ok _ -> Alcotest.fail "should have refused"
        | Error attached ->
            Alcotest.(check (list int)) "attached" [ r ]
              (List.map (fun (x : Graph.rel) -> x.Graph.r_id) attached));
    case "strict remove_node succeeds after removing the relationship" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        let g = Graph.remove_rel g r in
        match Graph.remove_node g a with
        | Ok g ->
            Alcotest.(check int) "one node left" 1 (Graph.node_count g);
            Alcotest.(check bool) "wellformed" true (Graph.is_wellformed g)
        | Error _ -> Alcotest.fail "should have succeeded");
    case "force removal leaves dangling relationships" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        let g = Graph.remove_node_force g a in
        Alcotest.(check bool) "not wellformed" false (Graph.is_wellformed g);
        Alcotest.(check (list int)) "dangling" [ r ]
          (List.map (fun (x : Graph.rel) -> x.Graph.r_id) (Graph.dangling_rels g)));
    case "detach removal deletes incident relationships" (fun () ->
        let g, a, _, _ = two_nodes_one_rel () in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check int) "nodes" 1 (Graph.node_count g);
        Alcotest.(check int) "rels" 0 (Graph.rel_count g);
        Alcotest.(check bool) "wellformed" true (Graph.is_wellformed g));
    case "deleted entities read as absent" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        let g = Graph.add_label g a "A" in
        let g = Graph.remove_rel g r in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check bool) "node gone" true (Option.is_none (Graph.node g a));
        Alcotest.(check bool) "rel gone" true (Option.is_none (Graph.rel g r));
        Alcotest.(check (list string)) "labels read as empty" []
          (Graph.labels_of g a);
        let g2 =
          Graph.rebuild ~next_id:(Graph.next_id g) (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check int) "rebuild keeps next_id" (Graph.next_id g)
          (Graph.next_id g2);
        Alcotest.(check bool) "still absent after rebuild" true
          (Option.is_none (Graph.node g2 a) && Option.is_none (Graph.rel g2 r)));
    case "ids are never reused after deletion" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let g = Graph.remove_node_detach g a in
        let b, _ = Graph.create_node g in
        Alcotest.(check bool) "fresh id" true (b <> a));
    case "property update flavours" (fun () ->
        let a, g = Graph.create_node ~props:(Props.of_list [ ("x", vint 1); ("y", vint 2) ]) Graph.empty in
        let g = Graph.set_node_prop g a "x" (vint 10) in
        check_value "set" (vint 10) (Props.get (Graph.node_props_of g a) "x");
        let g = Graph.set_node_prop g a "z" (vint 3) in
        check_value "set keeps y" (vint 2) (Props.get (Graph.node_props_of g a) "y");
        check_value "set adds z" (vint 3) (Props.get (Graph.node_props_of g a) "z");
        let g = Graph.replace_node_props g a (Props.of_list [ ("only", vint 9) ]) in
        Alcotest.(check (list string)) "replace" [ "only" ]
          (Props.keys (Graph.node_props_of g a)));
    case "label add and remove" (fun () ->
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let g = Graph.add_label g a "B" in
        Alcotest.(check (list string)) "added" [ "A"; "B" ] (Graph.labels_of g a);
        let g = Graph.remove_label g a "A" in
        Alcotest.(check (list string)) "removed" [ "B" ] (Graph.labels_of g a));
    case "setting a property to null removes it" (fun () ->
        let a, g = Graph.create_node ~props:(Props.of_list [ ("x", vint 1) ]) Graph.empty in
        let g = Graph.set_node_prop g a "x" vnull in
        Alcotest.(check bool) "gone" true
          (Props.is_empty (Graph.node_props_of g a)));
    case "rebuild reconstructs adjacency" (fun () ->
        let g, a, b, _ = two_nodes_one_rel () in
        let g2 =
          Graph.rebuild ~next_id:(Graph.next_id g)
            (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check int) "out degree preserved" 1
          (List.length (Graph.out_rels g2 a));
        Alcotest.(check int) "in degree preserved" 1
          (List.length (Graph.in_rels g2 b));
        Alcotest.check graph_iso_testable "isomorphic" g g2);
    case "label index follows creation and label updates" (fun () ->
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let b, g = Graph.create_node ~labels:[ "A"; "B" ] g in
        Alcotest.(check (list int)) "A" [ a; b ] (Graph.nodes_with_label g "A");
        Alcotest.(check (list int)) "B" [ b ] (Graph.nodes_with_label g "B");
        let g = Graph.add_label g a "B" in
        Alcotest.(check (list int)) "B grows" [ a; b ] (Graph.nodes_with_label g "B");
        let g = Graph.remove_label g b "A" in
        Alcotest.(check (list int)) "A shrinks" [ a ] (Graph.nodes_with_label g "A");
        Alcotest.(check (list int)) "unknown label" []
          (Graph.nodes_with_label g "Zzz"));
    case "label index follows deletion and rebuild" (fun () ->
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let _b, g = Graph.create_node ~labels:[ "A" ] g in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check int) "one left" 1
          (List.length (Graph.nodes_with_label g "A"));
        let g2 =
          Graph.rebuild ~next_id:(Graph.next_id g)
            (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check int) "index rebuilt" 1
          (List.length (Graph.nodes_with_label g2 "A")));
    case "self-loop counts once in incident rels" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let _, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"SELF" g in
        Alcotest.(check int) "incident" 1 (List.length (Graph.incident_rels g a));
        Alcotest.(check int) "degree" 1 (Graph.degree g a));
  ]

let histogram_tests =
  [
    case "label and type histograms" (fun () ->
        let g =
          graph_of
            "CREATE (:A), (:A:B), (:B)-[:T]->(:C), (:C)-[:T]->(:A), \
             (:X)-[:U]->(:X)"
        in
        Alcotest.(check (list (pair string int)))
          "labels"
          [ ("A", 3); ("B", 2); ("C", 2); ("X", 2) ]
          (Graph.label_histogram g);
        Alcotest.(check (list (pair string int)))
          "types" [ ("T", 2); ("U", 1) ] (Graph.type_histogram g));
    case "histograms of the empty graph are empty" (fun () ->
        Alcotest.(check (list (pair string int))) "labels" []
          (Graph.label_histogram Graph.empty);
        Alcotest.(check (list (pair string int))) "types" []
          (Graph.type_histogram Graph.empty));
  ]

let rel_ids rels = List.map (fun (r : Graph.rel) -> r.Graph.r_id) rels

let typed_adjacency_tests =
  [
    case "typed adjacency buckets by relationship type" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let c, g = Graph.create_node g in
        let t1, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let _u, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"U" g in
        let t2, g = Graph.create_rel ~src:a ~tgt:c ~r_type:"T" g in
        Alcotest.(check (list int))
          "out T in id order" [ t1; t2 ]
          (rel_ids (Graph.out_rels_typed g a "T"));
        Alcotest.(check (list int))
          "in T at b" [ t1 ]
          (rel_ids (Graph.in_rels_typed g b "T"));
        Alcotest.(check int) "out degree T" 2 (Graph.out_degree_typed g a "T");
        Alcotest.(check int) "out degree U" 1 (Graph.out_degree_typed g a "U");
        Alcotest.(check (list int))
          "unknown type is empty" []
          (rel_ids (Graph.out_rels_typed g a "Z")));
    case "typed self-loop is incident once" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let r, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"SELF" g in
        Alcotest.(check (list int))
          "incident" [ r ]
          (rel_ids (Graph.incident_rels_typed g a "SELF")));
    case "typed adjacency follows relationship removal" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let t1, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let t2, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let g = Graph.remove_rel g t1 in
        Alcotest.(check (list int))
          "t1 gone" [ t2 ]
          (rel_ids (Graph.out_rels_typed g a "T"));
        Alcotest.(check int) "type count" 1 (Graph.type_count g "T"));
    case "typed adjacency follows detaching node removal" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let c, g = Graph.create_node g in
        let _, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let t2, g = Graph.create_rel ~src:a ~tgt:c ~r_type:"T" g in
        let g = Graph.remove_node_detach g b in
        Alcotest.(check (list int))
          "only the c edge" [ t2 ]
          (rel_ids (Graph.out_rels_typed g a "T"));
        Alcotest.(check (list int))
          "b bucket empty" []
          (rel_ids (Graph.in_rels_typed g b "T")));
    case "rebuild reconstructs the typed adjacency" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let t, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let g' =
          Graph.rebuild ~next_id:(Graph.next_id g) (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check (list int))
          "same bucket" [ t ]
          (rel_ids (Graph.out_rels_typed g' a "T"));
        Alcotest.(check int) "type count" 1 (Graph.type_count g' "T"));
  ]

(* the untyped views are derived from the type buckets: each case
   checks them against a scan of the relationships (check_adjacency) *)
let derived_adjacency_tests =
  [
    case "untyped views merge three or more buckets in id order" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let rel src tgt ty g = snd (Graph.create_rel ~src ~tgt ~r_type:ty g) in
        let g = g |> rel a b "Z" |> rel a b "A" |> rel b a "M" |> rel a b "M" |> rel a b "Z" in
        let g = g |> rel b a "A" |> rel a b "A" in
        check_adjacency "three types" g;
        let ids = List.map (fun (r : Graph.rel) -> r.Graph.r_id) in
        let out = ids (Graph.out_rels g a) in
        Alcotest.(check (list int)) "out in id order" (List.sort compare out) out;
        Alcotest.(check int) "out count" 5 (List.length out);
        Alcotest.(check int) "degree" 7 (Graph.degree g a);
        (* a multi-type hop folds only the listed buckets, in id order *)
        let t =
          run_table g "MATCH (x)-[r:Z|A]->(y) WHERE id(x) = 0 RETURN id(r) AS r"
        in
        let listed = ids (List.filter (fun (r : Graph.rel) -> r.Graph.r_type <> "M") (Graph.out_rels g a)) in
        Alcotest.(check (list int)) "[:Z|A] hop" listed
          (List.map (function Value.Int i -> i | _ -> -1) (column t "r")));
    case "a node with one bucket gets that bucket back" (fun () ->
        let g = graph_of "CREATE (a)-[:T]->(b), (a)-[:T]->(b)" in
        let a = List.hd (Graph.node_ids g) in
        Alcotest.(check bool) "same set" true
          (Graph.out_rel_ids g a == Graph.out_rel_ids_typed g a "T"));
    case "self-loops appear in both directions and once when incident" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let l1, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"T" g in
        let out, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"U" g in
        let l2, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"U" g in
        check_adjacency "self-loops" g;
        Alcotest.(check (list int)) "out" [ l1; out; l2 ] (rel_ids (Graph.out_rels g a));
        Alcotest.(check (list int)) "in" [ l1; l2 ] (rel_ids (Graph.in_rels g a));
        Alcotest.(check (list int)) "incident" [ l1; out; l2 ] (rel_ids (Graph.incident_rels g a));
        Alcotest.(check int) "degree" 3 (Graph.degree g a);
        let g = Graph.remove_rel g l1 in
        check_adjacency "after removing a loop" g;
        Alcotest.(check int) "degree after" 2 (Graph.degree g a));
    case "relationship property updates leave the adjacency alone" (fun () ->
        (* type and endpoints are fixed at creation; only properties change *)
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let r, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let _, g = Graph.create_rel ~src:b ~tgt:a ~r_type:"U" g in
        let g = Graph.set_rel_prop g r "w" (vint 1) in
        let g = Graph.set_rel_prop g r "v" (vint 2) in
        let g = Graph.remove_rel_prop g r "w" in
        let g = Graph.replace_rel_props g r (Props.of_list [ ("z", vint 3) ]) in
        check_adjacency "after updates" g;
        Alcotest.(check (list int)) "still out of a" [ r ] (rel_ids (Graph.out_rels g a));
        check_value "props" (vint 3) (Props.get (Graph.rel_props_of g r) "z"));
    case "remove_node_force leaves every incident relationship dangling" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let c, g = Graph.create_node g in
        let r1, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let _, g = Graph.create_rel ~src:b ~tgt:c ~r_type:"T" g in
        let r3, g = Graph.create_rel ~src:c ~tgt:a ~r_type:"U" g in
        let r4, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"V" g in
        let r5, g = Graph.create_rel ~src:a ~tgt:c ~r_type:"W" g in
        let g = Graph.remove_node_force g a in
        Alcotest.(check (list int)) "dangling" [ r1; r3; r4; r5 ]
          (rel_ids (Graph.dangling_rels g));
        (* the surviving endpoints still see their half *)
        check_adjacency "after force removal" g;
        Alcotest.(check (list int)) "b in" [ r1 ] (rel_ids (Graph.in_rels g b));
        Alcotest.(check (list int)) "a has no views" [] (rel_ids (Graph.incident_rels g a));
        let g = List.fold_left Graph.remove_rel g [ r1; r3; r4; r5 ] in
        Alcotest.(check bool) "wellformed again" true (Graph.is_wellformed g);
        check_adjacency "after removing the dangling" g;
        Alcotest.(check int) "c degree" 1 (Graph.degree g c));
  ]

let prop_index_tests =
  let user k v g =
    let id, g =
      Graph.create_node ~labels:[ "User" ]
        ~props:(Props.of_list [ (k, v) ])
        g
    in
    (id, g)
  in
  [
    case "add_prop_index covers pre-existing nodes" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let b, g = user "id" (vint 7) g in
        let _, g = user "id" (vint 8) g in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check bool)
          "registered" true
          (Graph.has_prop_index g ~label:"User" ~key:"id");
        Alcotest.(check (option (list int)))
          "bucket 7" (Some [ a; b ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        Alcotest.(check (option int))
          "cardinality" (Some 2)
          (Graph.count_with_prop g ~label:"User" ~key:"id" (vint 7)));
    case "unregistered lookups answer None, null answers empty" (fun () ->
        let _, g = user "id" (vint 7) Graph.empty in
        Alcotest.(check (option (list int)))
          "no index" None
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check (option (list int)))
          "null never matches" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" Value.Null));
    case "index equates numerically equal Int and Float keys" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check (option (list int)))
          "float probe" (Some [ a ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (Value.Float 7.0)));
    case "index follows SET and REMOVE of the property" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        let g = Graph.set_node_prop g a "id" (vint 9) in
        Alcotest.(check (option (list int)))
          "old bucket empty" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        Alcotest.(check (option (list int)))
          "new bucket" (Some [ a ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 9));
        let g = Graph.remove_node_prop g a "id" in
        Alcotest.(check (option (list int)))
          "removed" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 9)));
    case "index follows label addition and removal" (fun () ->
        let a, g = Graph.create_node ~props:(Props.of_list [ ("id", vint 7) ]) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check (option (list int)))
          "unlabelled node absent" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        let g = Graph.add_label g a "User" in
        Alcotest.(check (option (list int)))
          "joins on add_label" (Some [ a ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        let g = Graph.remove_label g a "User" in
        Alcotest.(check (option (list int)))
          "leaves on remove_label" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7)));
    case "index follows node deletion" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let b, g = user "id" (vint 7) g in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check (option (list int)))
          "survivor only" (Some [ b ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7)));
    case "rebuild re-registers the requested indexes" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        let g' =
          Graph.rebuild
            ~prop_indexes:(Graph.prop_index_keys g)
            ~next_id:(Graph.next_id g)
            (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check (list (pair string string)))
          "keys survive" [ ("User", "id") ] (Graph.prop_index_keys g');
        Alcotest.(check (option (list int)))
          "bucket rebuilt" (Some [ a ])
          (Graph.nodes_with_prop g' ~label:"User" ~key:"id" (vint 7)));
  ]

(* One property index driven through [Graph] past the 32 entries of a
   [Vindex] leaf and back: creates, value-changing SETs, REMOVEs and
   deletes, the index's shape and every probe checked after each step.
   Three phases: creates with fresh values (past 100 distinct values,
   so leaves split and the root gains a level), a mix at that size,
   then mostly deletes (so nodes fall below 16 entries and join). *)

type vop =
  | Create of bool * vval  (** labelled?, value *)
  | Set of int * vval  (** the (i mod live)-th node *)
  | Unset of int
  | Delete of int

and vval = Fresh | Copy of int  (** a new value, or that of a node *)

(* Int, Float and String keys, the Float of every sixth key equal to
   the Int before it, so one index key carries both *)
let vval_of k =
  match k mod 6 with
  | 0 -> Value.String (Printf.sprintf "v%04d" k)
  | 3 -> Value.Float (float_of_int (k - 1))
  | _ -> Value.Int k

let show_vop = function
  | Create (l, Fresh) -> Printf.sprintf "create%s fresh" (if l then "" else " unlabelled")
  | Create (l, Copy j) -> Printf.sprintf "create%s copy %d" (if l then "" else " unlabelled") j
  | Set (i, Fresh) -> Printf.sprintf "set %d fresh" i
  | Set (i, Copy j) -> Printf.sprintf "set %d copy %d" i j
  | Unset i -> Printf.sprintf "unset %d" i
  | Delete i -> Printf.sprintf "delete %d" i

let gen_vops =
  QCheck.Gen.(
    let vval = frequency [ (3, return Fresh); (1, map (fun j -> Copy j) nat) ] in
    let create = map2 (fun l v -> Create (l, v)) (frequency [ (7, return true); (1, return false) ]) vval in
    let set = map2 (fun i v -> Set (i, v)) nat vval in
    let grow = frequency [ (9, map (fun l -> Create (l, Fresh)) (frequency [ (9, return true); (1, return false) ])); (1, create) ] in
    let mix = frequency [ (2, create); (3, set); (1, map (fun i -> Unset i) nat); (2, map (fun i -> Delete i) nat) ] in
    let shrink = frequency [ (6, map (fun i -> Delete i) nat); (2, set); (1, map (fun i -> Unset i) nat); (1, create) ] in
    map3 (fun a b c -> a @ b @ c) (list_repeat 180 grow) (list_repeat 150 mix) (list_repeat 200 shrink))

let index_probe_tests =
  let label = "P" and key = "k" in
  let key_of g id =
    match Props.get (Graph.node_props_of g id) key with Value.Null -> None | v -> Some v
  in
  (* the index as a scan: each key's ids, ascending *)
  let scan g =
    let m =
      Graph.fold_label
        (fun id acc ->
          match key_of g id with
          | Some v -> (v, id) :: acc
          | None -> acc)
        g label []
    in
    let sorted = List.stable_sort (fun (v, _) (w, _) -> Value.compare_total v w) (List.rev m) in
    (* runs of one key; ids stay ascending in each *)
    List.fold_right
      (fun (v, id) acc ->
        match acc with
        | (w, ids) :: rest when Value.compare_total v w = 0 -> (v, id :: ids) :: rest
        | _ -> (v, [ id ]) :: acc)
      sorted []
  in
  let check_step g touched =
    List.iter
      (fun (name, r) -> match r with Ok () -> () | Error e -> QCheck.Test.fail_reportf "%s: %s" name e)
      (Graph.check_shapes g);
    let expected = scan g in
    let probe v want =
      let got = Graph.nodes_with_prop g ~label ~key v in
      if got <> Some want then
        QCheck.Test.fail_reportf "probe %s: index [%s], scan [%s]" (Value.to_string v)
          (match got with None -> "none" | Some l -> String.concat "; " (List.map string_of_int l))
          (String.concat "; " (List.map string_of_int want))
    in
    List.iter (fun (v, ids) -> probe v ids) expected;
    List.iter
      (fun v ->
        probe v
          (match List.find_opt (fun (w, _) -> Value.compare_total v w = 0) expected with
          | Some (_, ids) -> ids
          | None -> []))
      touched;
    List.length expected
  in
  let run ops =
    let fresh = ref 0 in
    let value g live = function
      | Fresh ->
          incr fresh;
          vval_of !fresh
      | Copy j when live <> [||] -> (
          match key_of g live.(j mod Array.length live) with Some v -> v | None -> vval_of 0)
      | Copy _ -> vval_of 0
    in
    let g = Graph.add_prop_index ~label ~key Graph.empty in
    let _, peak =
      List.fold_left
        (fun (g, peak) op ->
          let live = Array.of_list (Graph.node_ids g) in
          let pick i = live.(i mod Array.length live) in
          let old i = Option.to_list (key_of g (pick i)) in
          let g, touched =
            match op with
            | Create (labelled, v) ->
                let v = value g live v in
                let labels = if labelled then [ label ] else [ "Q" ] in
                (snd (Graph.create_node ~labels ~props:(Props.of_list [ (key, v) ]) g), [ v ])
            | _ when live = [||] -> (g, [])
            | Set (i, v) ->
                let v = value g live v in
                (Graph.set_node_prop g (pick i) key v, v :: old i)
            | Unset i -> (Graph.remove_node_prop g (pick i) key, old i)
            | Delete i -> (Graph.remove_node_detach g (pick i), old i)
          in
          (g, max peak (check_step g touched)))
        (g, 0) ops
    in
    if peak < 100 then QCheck.Test.fail_reportf "the index peaked at %d distinct values" peak;
    true
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"a property index past 100 values and back agrees with a scan" ~count:15
         (QCheck.make ~print:(fun ops -> String.concat "\n" (List.map show_vop ops)) gen_vops)
         run);
  ]

(* ------------------------------------------------------------------ *)
(* Batch construction                                                 *)
(* ------------------------------------------------------------------ *)

(* a random base graph with registered indexes and a few deletions, so
   the batch lands on non-empty indexes and a gapped id space *)
let random_base rng ~size =
  let g = Graph.add_prop_index ~label:"A" ~key:"k" Graph.empty in
  let g = apply_steps g (random_steps rng ~nodes:[||] ~next_id:0 ~count:size) in
  let g = Graph.add_prop_index ~label:"B" ~key:"w" g in
  List.fold_left
    (fun g id -> if Random.State.int rng 5 = 0 then Graph.remove_node_detach g id else g)
    g (Graph.node_ids g)

(* [check_batch msg base steps]: one [add_batch] of [steps] equals the
   create sequence, and every id set it stores is in canonical form *)
let check_batch msg base steps =
  let g = batch_steps base steps in
  check_same_graph msg (apply_steps base steps) g;
  Graph.fold_id_sets
    (fun where s () -> if not (Ids.is_canonical s) then Alcotest.failf "%s: %s is not canonical" msg where)
    g ()

let batch_node id = { Graph.n_id = id; labels = Cypher_util.Maps.Sset.empty; n_props = Props.empty }
let batch_rel id src tgt = { Graph.r_id = id; src; tgt; r_type = "T"; r_props = Props.empty }
let leaves n = List.init n (fun _ -> Step_node ([ "B" ], Props.empty))

(* the shapes a batch's adjacency must sort into buckets: a bucket big
   enough to be a tree, several types at one endpoint in interleaved
   order, self-loops, base nodes that already have buckets, and
   endpoints far apart in a gapped id space *)
let batch_shape_tests =
  let p = Props.of_list [ ("k", vint 1) ] in
  [
    case "add_batch: a hub with a one-type bucket above the array size" (fun () ->
        (* node 0 has 20 :R out and 20 :R in *)
        let rels = List.concat_map (fun k -> [ Step_rel (0, k, "R", Props.empty); Step_rel (k, 0, "R", p) ]) (List.init 20 succ) in
        check_batch "hub" Graph.empty ((Step_node ([ "A" ], p) :: leaves 20) @ rels));
    case "add_batch: endpoints carrying several types" (fun () ->
        let types = [| "T"; "R"; "S"; "R"; "T"; "T"; "S" |] in
        let rels =
          List.init 60 (fun k ->
              let ty = types.(k mod Array.length types) in
              if k mod 3 = 0 then Step_rel (1 + (k mod 2), 0, ty, Props.empty)
              else Step_rel (0, 1 + (k mod 2), ty, p))
        in
        (* one endpoint whose relationships share a type but the last *)
        let tail = List.init 5 (fun _ -> Step_rel (2, 1, "R", Props.empty)) @ [ Step_rel (2, 1, "Q", p) ] in
        check_batch "types" Graph.empty ((Step_node ([ "A" ], p) :: leaves 2) @ rels @ tail));
    case "add_batch: self-loops alone and among other relationships" (fun () ->
        let loops = List.init 20 (fun k -> Step_rel (0, 0, (if k mod 4 = 0 then "S" else "R"), Props.empty)) in
        check_batch "self-loops" Graph.empty
          ((Step_node ([ "A" ], p) :: leaves 2) @ loops
          @ [ Step_rel (1, 1, "R", p); Step_rel (0, 1, "R", Props.empty); Step_rel (1, 0, "R", Props.empty) ]));
    case "add_batch: onto base nodes that already have buckets" (fun () ->
        let base =
          apply_steps (Graph.add_prop_index ~label:"A" ~key:"k" Graph.empty)
            ((Step_node ([ "A" ], p) :: leaves 3)
            @ List.init 18 (fun k -> Step_rel (0, 1 + (k mod 3), "R", Props.empty))
            @ [ Step_rel (1, 0, "S", p); Step_rel (2, 2, "R", Props.empty) ])
        in
        let next = Graph.next_id base in
        (* a tree bucket grows, an array bucket grows into a tree, a
           one-id bucket grows, a base node gains a type, and new nodes
           join old ones *)
        let steps =
          leaves 2
          @ List.init 6 (fun k -> Step_rel (0, 1 + (k mod 3), "R", Props.empty))
          @ List.init 17 (fun k -> Step_rel (1 + (k mod 2), 0, "S", Props.empty))
          @ [ Step_rel (2, 2, "R", p); Step_rel (0, next, "T", p); Step_rel (next + 1, 3, "R", Props.empty) ]
        in
        check_batch "base buckets" base steps);
    case "add_batch: endpoints spread over a wide, gapped id range" (fun () ->
        (* three nodes left of 3000, so a batch of a dozen relationships
           spans an endpoint range far wider than itself *)
        let base = apply_steps Graph.empty (leaves 3000) in
        let base =
          List.fold_left
            (fun g id -> if id mod 1499 = 0 then g else Graph.remove_node_detach g id)
            base (Graph.node_ids base)
        in
        Alcotest.(check (list int)) "base nodes" [ 0; 1499; 2998 ] (Graph.node_ids base);
        let far = [| 0; 1499; 2998; 3000; 3001 |] in
        let rels =
          List.init 12 (fun k ->
              Step_rel (far.(k mod 5), far.((k * 3 + 1) mod 5), (if k mod 3 = 0 then "S" else "R"), Props.empty))
        in
        check_batch "wide range" base (leaves 2 @ rels);
        check_batch "one far relationship" base [ Step_rel (2998, 0, "R", p) ]);
    case "add_batch names the first bad relationship, source before target" (fun () ->
        let refuses what msg nodes rels =
          Alcotest.check_raises what (Invalid_argument ("Graph.add_batch: " ^ msg)) (fun () ->
              ignore (Graph.add_batch Graph.empty nodes rels))
        in
        let nodes = [| batch_node 0 |] in
        refuses "bad target, then a bad source" "no target node 7" nodes
          [| batch_rel 1 0 7; batch_rel 2 9 0 |];
        refuses "both endpoints bad" "no source node 8" nodes [| batch_rel 1 8 7 |];
        refuses "bad sources out of endpoint order" "no source node 9" nodes
          [| batch_rel 1 9 0; batch_rel 2 3 0 |];
        refuses "a good relationship, then a bad target, then both bad" "no target node 5" nodes
          [| batch_rel 1 0 0; batch_rel 2 0 5; batch_rel 3 4 6 |];
        Alcotest.check_raises "rebuild, in id order" (Invalid_argument "Graph.rebuild: no source node 6") (fun () ->
            ignore (Graph.rebuild ~next_id:4 [ batch_node 0 ] [ batch_rel 3 0 2; batch_rel 1 6 0 ])));
  ]

(* [check_index_build msg indexes base steps]: with [indexes]
   registered on [base], one [add_batch] of [steps] equals the create
   sequence; and registering [indexes] after the create sequence builds
   the same indexes.  Every id set is canonical. *)
let check_index_build msg indexes base steps =
  let register g = List.fold_left (fun g (label, key) -> Graph.add_prop_index ~label ~key g) g indexes in
  let canonical what g =
    Graph.fold_id_sets
      (fun where s () ->
        if not (Ids.is_canonical s) then Alcotest.failf "%s (%s): %s is not canonical" msg what where)
      g ()
  in
  let created = apply_steps (register base) steps in
  check_batch (msg ^ ", batch") (register base) steps;
  let late = register (apply_steps base steps) in
  check_same_graph (msg ^ ", registered after") created late;
  canonical "registered after" late

let index_build_tests =
  let node labels props = Step_node (labels, Props.of_list props) in
  let k v = [ ("k", v) ] and vfloat f = Value.Float f in
  let ab = [ ("A", "k"); ("B", "w") ] in
  [
    case "index build: values that do not ascend with the ids" (fun () ->
        check_index_build "descending" ab Graph.empty
          (List.map (fun v -> node [ "A" ] (k (vint v))) [ 9; 7; 5; 3; 1; 8; 6; 4; 2; 0 ]));
    case "index build: repeated values, some above the array size" (fun () ->
        check_index_build "repeats" ab Graph.empty
          (List.init 40 (fun i -> node [ "A" ] (k (vint (if i mod 7 = 0 then 2 else 1))))));
    case "index build: ints and floats that compare equal share a bucket" (fun () ->
        check_index_build "mixed numbers" ab Graph.empty
          (List.map
             (fun v -> node [ "A" ] (k v))
             [ vint 1; vfloat 1.0; vfloat 1.5; vint 2; vfloat 2.0; vint 1; vfloat 0.5; vstr "1" ]));
    case "index build: nodes without the key or the label" (fun () ->
        check_index_build "absent" ab Graph.empty
          [ node [ "A" ] []; node [ "A" ] [ ("w", vint 1) ]; node [ "B" ] (k (vint 1));
            node [] (k (vint 1)); node [ "A" ] (k (vint 3)); node [ "A" ] (k vnull) ]);
    case "index build: nodes with two indexed labels" (fun () ->
        check_index_build "two labels" (("A", "w") :: ab) Graph.empty
          (List.init 25 (fun i ->
               node
                 (if i mod 3 = 0 then [ "A"; "B" ] else if i mod 3 = 1 then [ "B" ] else [ "A" ])
                 [ ("k", vint (i mod 4)); ("w", vint (i mod 5)) ])));
    case "index build: a base already holding some of the batch's values" (fun () ->
        let base =
          apply_steps Graph.empty
            (List.init 20 (fun i -> node [ "A"; "B" ] [ ("k", vint (i mod 3)); ("w", vint 1) ]))
        in
        check_index_build "base values" ab base
          (List.init 30 (fun i -> node [ "A"; "B" ] [ ("k", vint (i mod 5)); ("w", vint (i mod 2)) ])));
    case "index build: random batches onto random indexed bases" (fun () ->
        for seed = 1 to 40 do
          let rng = Random.State.make [| seed |] in
          let base = apply_steps Graph.empty (random_steps rng ~nodes:[||] ~next_id:0 ~count:(Random.State.int rng 30)) in
          let steps =
            random_steps rng
              ~nodes:(Array.of_list (Graph.node_ids base))
              ~next_id:(Graph.next_id base) ~count:(1 + Random.State.int rng 60)
          in
          check_index_build (Printf.sprintf "seed %d" seed) [ ("A", "k"); ("B", "w"); ("C", "k") ] base steps
        done);
  ]

let batch_tests =
  [
    case "add_batch equals the per-entity create sequence" (fun () ->
        for seed = 1 to 60 do
          let rng = Random.State.make [| seed |] in
          let base = random_base rng ~size:(Random.State.int rng 30) in
          let steps =
            random_steps rng
              ~nodes:(Array.of_list (Graph.node_ids base))
              ~next_id:(Graph.next_id base) ~count:(1 + Random.State.int rng 60)
          in
          check_same_graph (Printf.sprintf "seed %d" seed) (apply_steps base steps)
            (batch_steps base steps)
        done);
    case "add_batch covers self-loops, parallel edges and multi-label nodes" (fun () ->
        let p = Props.of_list [ ("k", vint 1) ] in
        let steps =
          [ Step_node ([ "A"; "B"; "C" ], p); Step_rel (0, 0, "R", p); Step_rel (0, 0, "R", Props.empty);
            Step_node ([ "A" ], p); Step_rel (0, 3, "S", Props.empty); Step_rel (0, 3, "S", p);
            Step_rel (3, 0, "R", Props.empty) ]
        in
        let base = Graph.add_prop_index ~label:"A" ~key:"k" Graph.empty in
        check_same_graph "shapes" (apply_steps base steps) (batch_steps base steps));
    case "add_batch refuses ids off the supply and missing endpoints" (fun () ->
        let node id = { Graph.n_id = id; labels = Cypher_util.Maps.Sset.empty; n_props = Props.empty } in
        let rel id src tgt = { Graph.r_id = id; src; tgt; r_type = "T"; r_props = Props.empty } in
        Alcotest.check_raises "gap" (Invalid_argument "Graph.add_batch: id 1 expected") (fun () ->
            ignore (Graph.add_batch Graph.empty [| node 0; node 2 |] [||]));
        Alcotest.check_raises "missing target" (Invalid_argument "Graph.add_batch: no target node 7")
          (fun () -> ignore (Graph.add_batch Graph.empty [| node 0 |] [| rel 1 0 7 |])));
    case "rebuild equals the per-entity create sequence" (fun () ->
        for seed = 1 to 20 do
          let rng = Random.State.make [| seed |] in
          let g = random_base rng ~size:(10 + Random.State.int rng 40) in
          let g' =
            Graph.rebuild ~prop_indexes:(Graph.prop_index_keys g) ~next_id:(Graph.next_id g) (List.rev (Graph.nodes g)) (Graph.rels g)
          in
          check_same_graph (Printf.sprintf "seed %d" seed) g g'
        done);
  ]

(* the stored node count against the node map, after a random mix of
   every operation that adds or removes nodes — including removals of
   ids that are already gone, which must not count twice *)
let node_count_tests =
  [
    case "node_count follows create, remove, force-remove, detach and batches" (fun () ->
        for seed = 1 to 30 do
          let rng = Random.State.make [| seed |] in
          let g = ref (random_base rng ~size:(Random.State.int rng 20)) in
          for step = 1 to 40 do
            let ids = Array.of_list (Graph.node_ids !g) in
            let any_id () =
              (* sometimes an id that is gone or never existed *)
              if ids = [||] || Random.State.int rng 4 = 0 then Random.State.int rng (Graph.next_id !g + 1)
              else ids.(Random.State.int rng (Array.length ids))
            in
            (g :=
               match Random.State.int rng 6 with
               | 0 -> snd (Graph.create_node ~labels:[ "A" ] !g)
               | 1 -> (match Graph.remove_node !g (any_id ()) with Ok g' -> g' | Error _ -> !g)
               | 2 -> Graph.remove_node_force !g (any_id ())
               | 3 -> Graph.remove_node_detach !g (any_id ())
               | 4 ->
                   let steps =
                     random_steps rng ~nodes:ids ~next_id:(Graph.next_id !g)
                       ~count:(Random.State.int rng 8)
                   in
                   batch_steps !g steps
               | _ -> Graph.add_label !g (any_id ()) "B");
            Alcotest.(check int)
              (Printf.sprintf "seed %d step %d" seed step)
              (List.length (Graph.node_ids !g))
              (Graph.node_count !g)
          done
        done);
  ]

(* the stored per-type counts against a scan of the relationships, after
   a random mix of every operation that adds or removes relationships —
   including removals of ids that are already gone, which must not count
   twice, and force removals, whose relationships stay (dangling) *)
let type_count_tests =
  [
    case "type counts follow create_rel, remove_rel, force-remove, detach and batches" (fun () ->
        for seed = 1 to 30 do
          let rng = Random.State.make [| seed |] in
          let g = ref (random_base rng ~size:(Random.State.int rng 20)) in
          for step = 1 to 40 do
            let nodes = Array.of_list (Graph.node_ids !g) in
            let rels = Array.of_list (Graph.rel_ids !g) in
            let any_id a =
              (* sometimes an id that is gone or never existed *)
              if a = [||] || Random.State.int rng 4 = 0 then Random.State.int rng (Graph.next_id !g + 1)
              else a.(Random.State.int rng (Array.length a))
            in
            (g :=
               match Random.State.int rng 5 with
               | 0 when nodes <> [||] ->
                   let pick () = nodes.(Random.State.int rng (Array.length nodes)) in
                   let r_type = [| "R"; "S"; "T" |].(Random.State.int rng 3) in
                   snd (Graph.create_rel ~src:(pick ()) ~tgt:(pick ()) ~r_type !g)
               | 1 -> Graph.remove_rel !g (any_id rels)
               | 2 -> Graph.remove_node_force !g (any_id nodes)
               | 3 -> Graph.remove_node_detach !g (any_id nodes)
               | _ ->
                   let steps =
                     random_steps rng ~nodes ~next_id:(Graph.next_id !g)
                       ~count:(Random.State.int rng 8)
                   in
                   batch_steps !g steps);
            let msg what = Printf.sprintf "seed %d step %d: %s" seed step what in
            let scanned = scanned_type_histogram !g in
            Alcotest.(check (list (pair string int)))
              (msg "type_histogram") scanned (Graph.type_histogram !g);
            List.iter
              (fun ty ->
                Alcotest.(check int)
                  (msg ("type_count " ^ ty))
                  (Option.value (List.assoc_opt ty scanned) ~default:0)
                  (Graph.type_count !g ty))
              [ "R"; "S"; "T"; "absent" ]
          done
        done);
  ]

(* [check_forms msg g]: every stored structure is in its canonical form
   (fuzz oracle 4's check, bucket forms among them) and the adjacency
   views agree with a scan of the relationships *)
let check_forms msg g =
  (match Cypher_fuzz.Oracles.representation_ok g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" msg e);
  check_adjacency msg g

(* a node's buckets in one direction are one type stored alone or a
   map of two or more; creates and deletes move them between the two *)
let bucket_form_tests =
  [
    case "buckets move between one type and several under create and delete" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let rel ty g = Graph.create_rel ~src:a ~tgt:b ~r_type:ty g in
        let r1, g = rel "R" g in
        check_forms "one type" g;
        let s1, g = rel "S" g in
        check_forms "two types" g;
        let t1, g = rel "T" g in
        check_forms "three types" g;
        let g = Graph.remove_rel g s1 in
        check_forms "back to two" g;
        let g = Graph.remove_rel g r1 in
        check_forms "back to one" g;
        Alcotest.(check (list int)) "out of a" [ t1 ] (rel_ids (Graph.out_rels g a));
        Alcotest.(check bool) "the one type's set is the untyped view" true
          (Graph.in_rel_ids g b == Graph.in_rel_ids_typed g b "T");
        let g = Graph.remove_rel g t1 in
        check_forms "none" g;
        Alcotest.(check int) "degree" 0 (Graph.degree g a);
        (* a batch adds a second type to a node's lone bucket *)
        let g = batch_steps g [ Step_rel (a, b, "T", Props.empty); Step_rel (a, a, "U", Props.empty) ] in
        check_forms "batch onto none" g;
        let g = batch_steps g [ Step_rel (a, b, "R", Props.empty) ] in
        check_forms "batch onto one" g;
        let g = Graph.remove_node_detach g b in
        check_forms "detach" g);
    case "random creates and deletes keep every bucket in its form" (fun () ->
        for seed = 1 to 30 do
          let rng = Random.State.make [| seed |] in
          let g = ref (random_base rng ~size:(Random.State.int rng 12)) in
          for step = 1 to 60 do
            let nodes = Array.of_list (Graph.node_ids !g) in
            let rels = Array.of_list (Graph.rel_ids !g) in
            let pick a = a.(Random.State.int rng (Array.length a)) in
            (g :=
               match Random.State.int rng 6 with
               | (0 | 1) when nodes <> [||] ->
                   let r_type = [| "R"; "S" |].(Random.State.int rng 2) in
                   snd (Graph.create_rel ~src:(pick nodes) ~tgt:(pick nodes) ~r_type !g)
               | (2 | 3) when rels <> [||] -> Graph.remove_rel !g (pick rels)
               | 4 when nodes <> [||] -> Graph.remove_node_detach !g (pick nodes)
               | _ ->
                   batch_steps !g
                     (random_steps rng ~nodes ~next_id:(Graph.next_id !g)
                        ~count:(Random.State.int rng 6)));
            check_forms (Printf.sprintf "seed %d step %d" seed step) !g
          done
        done);
  ]

let suite =
  suite @ histogram_tests @ bucket_form_tests @ typed_adjacency_tests @ derived_adjacency_tests @ prop_index_tests
  @ index_probe_tests @ batch_tests @ batch_shape_tests @ index_build_tests @ node_count_tests @ type_count_tests
