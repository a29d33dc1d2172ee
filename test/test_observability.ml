(** Observability layer: update counters, EXPLAIN / PROFILE, and the
    structured errors the layer depends on. *)

open Cypher_graph
open Test_util
module Api = Cypher_core.Api
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors
module Stats = Cypher_core.Stats
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let stats ?config g src =
  match Api.run_string ?config g src with
  | Ok r -> r.Api.r_stats
  | Error e -> Alcotest.failf "query failed: %s" (Errors.to_string e)

let check_counts name st ~expect =
  List.iter
    (fun (label, got, want) ->
      Alcotest.(check int) (name ^ ": " ^ label) want got)
    [
      ("nodes_created", st.Stats.nodes_created, expect.Stats.nodes_created);
      ("nodes_deleted", st.Stats.nodes_deleted, expect.Stats.nodes_deleted);
      ("rels_created", st.Stats.rels_created, expect.Stats.rels_created);
      ("rels_deleted", st.Stats.rels_deleted, expect.Stats.rels_deleted);
      ("props_set", st.Stats.props_set, expect.Stats.props_set);
      ("props_removed", st.Stats.props_removed, expect.Stats.props_removed);
      ("labels_added", st.Stats.labels_added, expect.Stats.labels_added);
      ("labels_removed", st.Stats.labels_removed, expect.Stats.labels_removed);
    ]

(* the statement's counters read [expect], and apart from the execution
   counts they equal the oracle's full-scan diff of the two graphs *)
let check_diff g src ~expect =
  match Api.run_string g src with
  | Error e -> Alcotest.failf "query failed: %s" (Errors.to_string e)
  | Ok r ->
      let st = r.Api.r_stats in
      Alcotest.(check string) "counters" expect (Stats.to_string st);
      check_counts "diff" st ~expect:(Cypher_fuzz.Oracles.graph_diff g r.Api.r_graph)

let counter_tests =
  [
    case "create counts nodes, rels, props and labels" (fun () ->
        let st = stats Graph.empty "CREATE (:A {x: 1, y: 2})-[:T {w: 3}]->(:B)" in
        check_counts "create" st
          ~expect:
            {
              Stats.empty with
              nodes_created = 2;
              rels_created = 1;
              props_set = 3;
              labels_added = 2;
            });
    case "create-then-delete in one statement nets to zero" (fun () ->
        let st =
          stats Graph.empty "CREATE (n:Tmp {x: 1}) WITH n DETACH DELETE n"
        in
        Alcotest.(check bool) "no updates" false (Stats.contains_updates st));
    case "set back to the original value counts nothing" (fun () ->
        let g = graph_of "CREATE (:A {x: 1})" in
        let st = stats g "MATCH (a:A) SET a.x = 2 SET a.x = 1" in
        Alcotest.(check bool) "no updates" false (Stats.contains_updates st));
    case "set twice counts once" (fun () ->
        let g = graph_of "CREATE (:A {x: 1})" in
        let st = stats g "MATCH (a:A) SET a.x = 2 SET a.x = 3" in
        check_counts "double set" st ~expect:{ Stats.empty with props_set = 1 });
    case "remove and re-add a label counts nothing" (fun () ->
        let g = graph_of "CREATE (:A:B)" in
        let st = stats g "MATCH (a:A) REMOVE a:B SET a:B" in
        Alcotest.(check bool) "no updates" false (Stats.contains_updates st));
    case "delete folds the victim's props and labels into the delete"
      (fun () ->
        let g = graph_of "CREATE (:A:B {x: 1, y: 2})" in
        let st = stats g "MATCH (a:A) DETACH DELETE a" in
        check_counts "delete" st ~expect:{ Stats.empty with nodes_deleted = 1 });
    case "detach delete counts severed relationships" (fun () ->
        let g = graph_of "CREATE (:A)-[:T]->(:B), (:C)-[:U]->(:A2)" in
        let st = stats g "MATCH (a:A) DETACH DELETE a" in
        check_counts "detach" st
          ~expect:{ Stats.empty with nodes_deleted = 1; rels_deleted = 1 });
    case "merge reports matched vs created" (fun () ->
        let g = graph_of "CREATE (:V {k: 1})" in
        let st = stats g "UNWIND [1, 2] AS i MERGE ALL (:V {k: i})" in
        Alcotest.(check int) "matched" 1 st.Stats.merge_matched;
        Alcotest.(check int) "created" 1 st.Stats.merge_created;
        Alcotest.(check int) "one new node" 1 st.Stats.nodes_created);
    case "rows mirrors the output table" (fun () ->
        let st = stats Graph.empty "UNWIND [1, 2, 3] AS i RETURN i" in
        Alcotest.(check int) "rows" 3 st.Stats.rows);
    case "disabled collection yields empty stats" (fun () ->
        let config = Config.with_stats false Config.revised in
        let st = stats ~config Graph.empty "CREATE (:A {x: 1})" in
        Alcotest.(check bool) "all zero" true (Stats.equal st Stats.empty));
    case "footer phrasing" (fun () ->
        Alcotest.(check string)
          "no changes" "(no changes)" (Stats.footer Stats.empty);
        let st =
          { Stats.empty with nodes_created = 2; props_set = 3; labels_added = 1 }
        in
        Alcotest.(check string)
          "created" "Created 2 nodes, set 3 properties, added 1 label"
          (Stats.footer st));
  ]

let explain_tests =
  [
    case "EXPLAIN renders a plan and does not execute" (fun () ->
        let g = graph_of "CREATE (:A), (:A), (:B)" in
        match Api.run_string g "EXPLAIN MATCH (a:A) CREATE (:C)" with
        | Error e -> Alcotest.failf "explain failed: %s" (Errors.to_string e)
        | Ok r ->
            Alcotest.(check bool) "plan present" true (r.Api.r_plan <> None);
            Alcotest.(check bool) "no profile" true (r.Api.r_profile = None);
            Alcotest.(check int) "graph untouched" 3
              (Graph.node_count r.Api.r_graph);
            let plan = Option.get r.Api.r_plan in
            Alcotest.(check bool) "mentions the label index" true
              (contains ~sub:"label index :A" plan));
    case "PROFILE executes and reports per-clause rows" (fun () ->
        let g = graph_of "CREATE (:A), (:A)" in
        match
          Api.run_string g "PROFILE MATCH (a:A) SET a.x = 1 RETURN a.x"
        with
        | Error e -> Alcotest.failf "profile failed: %s" (Errors.to_string e)
        | Ok r ->
            let entries = Option.get r.Api.r_profile in
            Alcotest.(check int) "three clauses" 3 (List.length entries);
            Alcotest.(check (list int))
              "row counts" [ 2; 2; 2 ]
              (List.map (fun e -> e.Stats.pf_rows) entries);
            Alcotest.(check bool) "times are non-negative" true
              (List.for_all (fun e -> e.Stats.pf_ns >= 0L) entries);
            Alcotest.(check int) "props counted" 2 r.Api.r_stats.Stats.props_set);
    case "EXPLAIN without planner reports naive enumeration" (fun () ->
        let g = graph_of "CREATE (:A)" in
        let config = Config.with_planner Config.Off Config.revised in
        match Api.run_string ~config g "EXPLAIN MATCH (a:A) RETURN a" with
        | Error e -> Alcotest.failf "explain failed: %s" (Errors.to_string e)
        | Ok r ->
            let plan = Option.get r.Api.r_plan in
            Alcotest.(check bool) "planner off noted" true
              (contains ~sub:"planner off" plan));
  ]

let error_tests =
  [
    case "UNWIND on a non-list is a structured eval error" (fun () ->
        match run_err Graph.empty "UNWIND 42 AS x RETURN x" with
        | Errors.Eval_error m ->
            Alcotest.(check bool) "message" true
              (contains ~sub:"Type mismatch: expected List" m)
        | e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e));
    case "UNWIND NULL yields no rows, not an error" (fun () ->
        let t = run_table Graph.empty "UNWIND null AS x RETURN x" in
        Alcotest.(check int) "no rows" 0 (Cypher_table.Table.row_count t));
    case "run_exn raises the structured exception" (fun () ->
        match Api.run_exn Graph.empty "UNWIND 42 AS x RETURN x" with
        | exception Errors.Error (Errors.Eval_error _) -> ()
        | exception e ->
            Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
        | _ -> Alcotest.fail "expected run_exn to raise");
    case "FOREACH shadowing an in-scope variable is rejected" (fun () ->
        match run_err Graph.empty "MATCH (x) FOREACH (x IN [1] | SET x.k = 1)" with
        | Errors.Validation_error m ->
            Alcotest.(check bool) "names the variable" true
              (contains ~sub:"already declared" m)
        | e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e));
    case "FOREACH with a fresh variable still validates" (fun () ->
        let g =
          run_graph Graph.empty
            "FOREACH (i IN [1, 2] | CREATE (:N {v: i}))"
        in
        Alcotest.(check int) "created" 2 (Graph.node_count g));
    case "nested FOREACH can shadow nothing but reuse sibling names"
      (fun () ->
        (* two sibling FOREACHes may both use [i]; nesting may not *)
        let g =
          run_graph Graph.empty
            "FOREACH (i IN [1] | CREATE (:A {v: i})) FOREACH (i IN [2] | \
             CREATE (:B {v: i}))"
        in
        Alcotest.(check int) "both ran" 2 (Graph.node_count g);
        match
          run_err Graph.empty
            "FOREACH (i IN [1] | FOREACH (i IN [2] | CREATE (:N)))"
        with
        | Errors.Validation_error _ -> ()
        | e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e));
  ]

let diff_tests =
  [
    (* MERGE SAME collapsing across groups rebuilds the graph, and a
       FOREACH runs its body clause by clause: neither output shares
       structure with its input the way one update clause's does *)
    case "MERGE SAME collapsing across groups counts as the diff" (fun () ->
        check_diff (graph_of "CREATE (:A {k: 9})-[:S]->(:B {k: 9}), (:A {k: 1}), (:C {x: 1})")
          "UNWIND [[1,2],[1,3]] AS p MERGE SAME (:A {k:p[0]})-[:S]->(:B {k:p[1]})"
          ~expect:"+3n -0n +2r -0r props +3 -0 labels +3 -0 merge 0m/2c rows 2");
    case "FOREACH over MERGE, SET, REMOVE and DETACH DELETE counts as the diff"
      (fun () ->
        check_diff
          (graph_of
             "CREATE (a:A:Tag {old: 1, n: 0})-[:R]->(:B {k: 1}), (:B {k: 2})-[:R]->(:M {k: 1}), \
              (:M {k: 3})")
          "MATCH (a:A) FOREACH (i IN [1, 2, 3] | MERGE ALL (m:M {k: i}) SET m.seen = i, \
           a.n = a.n + i REMOVE a.old, a:Tag) WITH a MATCH (b:B) FOREACH (x IN [b] | SET \
           x:Gone, x.k = null DETACH DELETE x)"
          ~expect:"+1n -2n +0r -2r props +5 -1 labels +1 -1 merge 2m/1c rows 2");
  ]

let suite = counter_tests @ explain_tests @ error_tests @ diff_tests
