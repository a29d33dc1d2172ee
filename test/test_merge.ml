(** MERGE: legacy match-or-create, the five proposed semantics, ON
    CREATE / ON MATCH, bound variables, null handling. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
open Cypher_paper
open Test_util
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors

let legacy_tests =
  [
    case "match-or-create: creates when absent" (fun () ->
        let g = run_graph ~config:Config.cypher9 Graph.empty "MERGE (:X {v: 1})" in
        Alcotest.(check int) "created" 1 (Graph.node_count g));
    case "match-or-create: matches when present" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let g = run_graph ~config:Config.cypher9 g "MERGE (:X {v: 1})" in
        Alcotest.(check int) "no duplicate" 1 (Graph.node_count g));
    case "legacy MERGE reads its own writes across records" (fun () ->
        let g =
          run_graph ~config:Config.cypher9 Graph.empty
            "UNWIND [1, 1, 1] AS x MERGE (:X {v: x})"
        in
        Alcotest.(check int) "one node for three equal rows" 1 (Graph.node_count g));
    case "returns every match, not just one" (fun () ->
        let g = graph_of "CREATE (:X {v: 1}), (:X {v: 1})" in
        let t = run_table ~config:Config.cypher9 g "MERGE (n:X {v: 1}) RETURN n" in
        check_rows "both matches" 2 t);
    case "undirected legacy MERGE matches either direction" (fun () ->
        let g = graph_of "CREATE (:A)-[:T]->(:B)" in
        let g2 =
          run_graph ~config:Config.cypher9 g "MATCH (a:A), (b:B) MERGE (b)-[:T]-(a)"
        in
        Alcotest.(check int) "matched, no new rel" 1 (Graph.rel_count g2));
    case "undirected legacy MERGE creates left-to-right" (fun () ->
        let g = graph_of "CREATE (:A), (:B)" in
        let g2 =
          run_graph ~config:Config.cypher9 g "MATCH (a:A), (b:B) MERGE (a)-[:T]-(b)"
        in
        let r = List.hd (Graph.rels g2) in
        Alcotest.(check (list string)) "src is A" [ "A" ] (Graph.labels_of g2 r.Graph.src));
    case "ON CREATE SET fires only on creation" (fun () ->
        let g =
          run_graph ~config:Config.cypher9 Graph.empty
            "MERGE (n:X {v: 1}) ON CREATE SET n.created = true ON MATCH SET n.matched = true"
        in
        let n = List.hd (Graph.nodes g) in
        check_value "created" (vbool true) (Props.get n.Graph.n_props "created");
        check_value "not matched" vnull (Props.get n.Graph.n_props "matched"));
    case "ON MATCH SET fires only on match" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let g =
          run_graph ~config:Config.cypher9 g
            "MERGE (n:X {v: 1}) ON CREATE SET n.created = true ON MATCH SET n.matched = true"
        in
        let n = List.hd (Graph.nodes g) in
        check_value "matched" (vbool true) (Props.get n.Graph.n_props "matched");
        check_value "not created" vnull (Props.get n.Graph.n_props "created"));
  ]

(* helpers over explicit driving tables *)
let run_mode ?(config = Config.permissive) mode src (g, t) =
  Runner.run_merge_mode config ~mode src (g, t)

let revised_tests =
  [
    case "MERGE ALL matches against the input graph only" (fun () ->
        (* all three identical rows fail in the input graph: three copies *)
        let g =
          run_graph Graph.empty "UNWIND [1, 1, 1] AS x MERGE ALL (:X {v: x})"
        in
        Alcotest.(check int) "three copies" 3 (Graph.node_count g));
    case "MERGE SAME collapses identical creations" (fun () ->
        let g =
          run_graph Graph.empty "UNWIND [1, 1, 1] AS x MERGE SAME (:X {v: x})"
        in
        Alcotest.(check int) "one node" 1 (Graph.node_count g));
    case "a quotient with only singleton classes is the input graph" (fun () ->
        (* no rebuild: the very same graph comes back, maps and all *)
        let g = graph_of "CREATE (:X {v: 1})-[:T]->(:X {v: 2}), (:X {v: 3})" in
        let q =
          Cypher_core.Quotient.apply g
            ~new_nodes:(List.map (fun id -> (id, (0, 0))) (Graph.node_ids g))
            ~new_rels:(List.map (fun id -> (id, (0, 1))) (Graph.rel_ids g))
            ~node_pos_matters:false ~rel_pos_matters:false
        in
        Alcotest.(check bool) "physically the input" true
          (q.Cypher_core.Quotient.graph == g);
        List.iter
          (fun id ->
            Alcotest.(check int) "node map is the identity" id
              (q.Cypher_core.Quotient.node_map id))
          (Graph.node_ids g));
    case "non-collapsing MERGE SAME counts what MERGE ALL counts" (fun () ->
        let stats src =
          match Cypher_core.Api.run_string_full Graph.empty src with
          | Ok r -> r.Cypher_core.Api.r_stats
          | Error e -> Alcotest.fail (Errors.to_string e)
        in
        let pattern = " (:X {v: x})-[:T]->(:Y {v: x})" in
        let same = stats ("UNWIND [1, 2, 3] AS x MERGE SAME" ^ pattern) in
        let all = stats ("UNWIND [1, 2, 3] AS x MERGE ALL" ^ pattern) in
        Alcotest.(check bool) "same counters" true (Cypher_core.Stats.equal same all);
        Alcotest.(check int) "nodes" 6 same.Cypher_core.Stats.nodes_created;
        Alcotest.(check int) "rels" 3 same.Cypher_core.Stats.rels_created);
    case "existing nodes only collapse with themselves" (fun () ->
        (* two pre-existing equal nodes stay distinct; merged row matches
           both, creating nothing *)
        let g = graph_of "CREATE (:X {v: 1}), (:X {v: 1})" in
        let g2 = run_graph g "MERGE SAME (:X {v: 1})" in
        Alcotest.(check int) "still two" 2 (Graph.node_count g2));
    case "matched rows extend with every embedding" (fun () ->
        let g = graph_of "CREATE (:X {v: 1}), (:X {v: 1})" in
        let _, t =
          run_mode Merge_all "MERGE (n:X {v: 1})" (g, Table.unit)
        in
        check_rows "both embeddings" 2 t);
    case "result table is Tmatch plus Tcreate" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let _, t =
          Runner.run_clause Config.revised
            "MERGE ALL (n:X {v: x})"
            (g, Table.make [ "x" ]
                  [ Record.of_list [ ("x", vint 1) ];
                    Record.of_list [ ("x", vint 2) ] ])
        in
        check_rows "one match + one creation" 2 t);
    case "bound variables anchor creation" (fun () ->
        let g =
          run_graph Graph.empty
            "CREATE (p:Product) MERGE ALL (p)<-[:OFFERS]-(v:Vendor)"
        in
        Alcotest.(check int) "nodes" 2 (Graph.node_count g);
        Alcotest.(check int) "rels" 1 (Graph.rel_count g));
    case "merging on a null binding is an error" (fun () ->
        match
          run_err Graph.empty "OPTIONAL MATCH (a:Missing) MERGE ALL (a)-[:T]->(:B)"
        with
        | Errors.Update_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "null pattern properties never match but create propertyless" (fun () ->
        let g = graph_of "CREATE (:X)" in
        (* {v: null} does not match the existing propertyless node *)
        let g2 = run_graph g "MERGE SAME (:X {v: null})" in
        Alcotest.(check int) "created a second node" 2 (Graph.node_count g2);
        (* but the created node carries no v property, so a re-run
           still cannot match it: null matching is never satisfiable *)
        let g3 = run_graph g2 "MERGE SAME (:X {v: null})" in
        Alcotest.(check int) "created again" 3 (Graph.node_count g3));
    case "repeated variable inside the pattern instantiates once" (fun () ->
        let g =
          run_graph Graph.empty "MERGE ALL (a:X)-[:T]->(:Y)<-[:U]-(a)"
        in
        Alcotest.(check int) "two nodes" 2 (Graph.node_count g);
        Alcotest.(check int) "two rels" 2 (Graph.rel_count g));
    case "tuples of patterns merge together" (fun () ->
        let g = run_graph Graph.empty "MERGE ALL (a:X), (a)-[:T]->(:Y)" in
        Alcotest.(check int) "nodes" 2 (Graph.node_count g);
        Alcotest.(check int) "rels" 1 (Graph.rel_count g));
    case "ON CREATE SET under MERGE ALL is atomic over created rows" (fun () ->
        let g =
          run_graph Graph.empty
            "UNWIND [1, 2] AS x MERGE ALL (n:X {v: x}) ON CREATE SET n.flag = true"
        in
        Alcotest.(check int) "two nodes" 2 (Graph.node_count g);
        List.iter
          (fun (n : Graph.node) ->
            check_value "flagged" (vbool true) (Props.get n.Graph.n_props "flag"))
          (Graph.nodes g));
    case "ON CREATE SET conflicts after SAME-collapse are detected" (fun () ->
        (* both rows collapse to one node, then try to set different stamps *)
        match
          run_err Graph.empty
            "UNWIND [1, 2] AS x MERGE SAME (n:X) ON CREATE SET n.stamp = x"
        with
        | Errors.Set_conflict _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "ON MATCH SET under revised semantics" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let g =
          run_graph g "MERGE ALL (n:X {v: 1}) ON MATCH SET n.seen = true"
        in
        let n = List.hd (Graph.nodes g) in
        check_value "seen" (vbool true) (Props.get n.Graph.n_props "seen"));
    case "plain MERGE is rejected by the revised dialect" (fun () ->
        match run_err Graph.empty "MERGE (:X)" with
        | Errors.Validation_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "quotient rewrites table references" (fun () ->
        let _, t =
          Runner.run_clause Config.revised "MERGE SAME (n:X {v: v})"
            (Graph.empty,
             Table.make [ "v" ]
               [ Record.of_list [ ("v", vint 1) ];
                 Record.of_list [ ("v", vint 1) ] ])
        in
        match column t "n" with
        | [ Value.Node a; Value.Node b ] ->
            Alcotest.(check int) "same representative" a b
        | _ -> Alcotest.fail "expected two node bindings");
    case "GROUPING ignores irrelevant columns" (fun () ->
        (* same cid/pid but different date: one instance (Example 5) *)
        let table =
          Table.make [ "cid"; "date" ]
            [
              Record.of_list [ ("cid", vint 1); ("date", vstr "a") ];
              Record.of_list [ ("cid", vint 1); ("date", vstr "b") ];
            ]
        in
        let g, _ =
          run_mode Merge_grouping "MERGE (:U {id: cid})" (Graph.empty, table)
        in
        Alcotest.(check int) "one node" 1 (Graph.node_count g));
    case "GROUPING distinguishes bound-variable anchors" (fun () ->
        let base = graph_of "CREATE (:P {k: 1}), (:P {k: 2})" in
        let nodes = Graph.node_ids base in
        let table =
          Table.make [ "p" ]
            (List.map (fun id -> Record.of_list [ ("p", Value.Node id) ]) nodes)
        in
        let g, _ =
          run_mode Merge_grouping "MERGE (p)-[:T]->(:X)" (base, table)
        in
        (* two groups: one :X per anchored p *)
        Alcotest.(check int) "two created" 4 (Graph.node_count g);
        Alcotest.(check int) "two rels" 2 (Graph.rel_count g));
  ]

let figure_tests =
  [
    case "Figure 6: legacy order dependence" (fun () ->
        let run order =
          fst
            (Runner.run_merge_mode (Config.with_order order Config.cypher9)
               ~mode:Merge_legacy Fixtures.example3_merge
               (Fixtures.example3_graph, Fixtures.example3_table))
        in
        Alcotest.check graph_iso_testable "forward is 6b" Fixtures.figure6b
          (run Config.Forward);
        Alcotest.check graph_iso_testable "reverse is 6a" Fixtures.figure6a
          (run Config.Reverse));
    case "Figure 7: Example 5 under all five semantics" (fun () ->
        let run mode =
          fst
            (run_mode mode Fixtures.example5_merge (Graph.empty, Fixtures.example5_table))
        in
        Alcotest.check graph_iso_testable "ALL = 7a" Fixtures.figure7a (run Merge_all);
        Alcotest.check graph_iso_testable "GROUPING = 7b" Fixtures.figure7b
          (run Merge_grouping);
        Alcotest.check graph_iso_testable "WEAK = 7c" Fixtures.figure7c
          (run Merge_weak_collapse);
        Alcotest.check graph_iso_testable "COLLAPSE = 7c" Fixtures.figure7c
          (run Merge_collapse);
        Alcotest.check graph_iso_testable "SAME = 7c" Fixtures.figure7c
          (run Merge_same));
    case "Figure 8: Example 6 position sensitivity" (fun () ->
        let run mode =
          fst
            (run_mode mode Fixtures.example6_merge (Graph.empty, Fixtures.example6_table))
        in
        Alcotest.check graph_iso_testable "WEAK = 8a" Fixtures.figure8a
          (run Merge_weak_collapse);
        Alcotest.check graph_iso_testable "COLLAPSE = 8b" Fixtures.figure8b
          (run Merge_collapse);
        Alcotest.check graph_iso_testable "SAME = 8b" Fixtures.figure8b
          (run Merge_same));
    case "Figure 9: Example 7 relationship collapse" (fun () ->
        let run mode =
          fst
            (run_mode mode Fixtures.example7_merge
               (Fixtures.example7_graph, Fixtures.example7_table))
        in
        Alcotest.check graph_iso_testable "COLLAPSE = 9a" Fixtures.figure9a
          (run Merge_collapse);
        Alcotest.check graph_iso_testable "SAME = 9b" Fixtures.figure9b
          (run Merge_same));
  ]

let suite = legacy_tests @ revised_tests @ figure_tests
