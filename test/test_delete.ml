(** DELETE and DETACH DELETE under both regimes: strictness, null
    replacement, legacy dangling states and the statement-end check. *)

open Cypher_graph
open Cypher_table
open Test_util
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors

let pair = graph_of "CREATE (:A)-[:T]->(:B)"

let atomic_tests =
  [
    case "deleting a relationship" (fun () ->
        let g = run_graph pair "MATCH ()-[r:T]->() DELETE r" in
        Alcotest.(check int) "rels" 0 (Graph.rel_count g);
        Alcotest.(check int) "nodes kept" 2 (Graph.node_count g));
    case "deleting an attached node aborts" (fun () ->
        match run_err pair "MATCH (a:A) DELETE a" with
        | Errors.Delete_dangling { rels = [ _ ]; _ } -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "deleting node and relationship in the same clause is fine" (fun () ->
        let g = run_graph pair "MATCH (a:A)-[r:T]->() DELETE r, a" in
        Alcotest.(check int) "nodes" 1 (Graph.node_count g);
        Alcotest.(check bool) "wellformed" true (Graph.is_wellformed g));
    case "the relationship may come from another record" (fun () ->
        (* strictness is judged over the whole collected set *)
        let g =
          run_graph pair "MATCH (a:A) MATCH ()-[r]->() DELETE a, r"
        in
        Alcotest.(check int) "nodes" 1 (Graph.node_count g));
    case "DETACH DELETE removes attached relationships" (fun () ->
        let g = run_graph pair "MATCH (a:A) DETACH DELETE a" in
        Alcotest.(check int) "nodes" 1 (Graph.node_count g);
        Alcotest.(check int) "rels" 0 (Graph.rel_count g));
    case "references to deleted entities become null in the table" (fun () ->
        let t =
          run_table pair "MATCH (a:A)-[r:T]->(b) DETACH DELETE a RETURN a, r, b"
        in
        let row = List.hd (Table.rows t) in
        check_value "a nulled" vnull (Record.find row "a");
        check_value "r nulled" vnull (Record.find row "r");
        Alcotest.(check bool) "b kept" true (Record.find row "b" <> vnull));
    case "deleting twice is a no-op" (fun () ->
        let g = graph_of "CREATE (:A), (:A)" in
        let g =
          run_graph g "MATCH (a:A), (b:A) DETACH DELETE a, b"
        in
        Alcotest.(check int) "all gone" 0 (Graph.node_count g));
    case "DELETE null is a no-op" (fun () ->
        let g = run_graph pair "OPTIONAL MATCH (m:Missing) DELETE m" in
        Alcotest.(check int) "unchanged" 2 (Graph.node_count g));
    case "deleting a path deletes its components" (fun () ->
        let g = run_graph pair "MATCH p = (:A)-[:T]->(:B) DELETE p" in
        Alcotest.(check int) "nodes" 0 (Graph.node_count g);
        Alcotest.(check int) "rels" 0 (Graph.rel_count g));
    case "order independence of atomic DETACH DELETE" (fun () ->
        let g = graph_of "CREATE (:N {v:1})-[:T]->(:M), (:N {v:2})-[:T]->(:M)" in
        let run order =
          run_graph ~config:(Config.with_order order Config.revised) g
            "MATCH (n:N) DETACH DELETE n"
        in
        Alcotest.check graph_iso_testable "same"
          (run Config.Forward) (run Config.Reverse));
    case "SET on a reference nulled by DELETE is a no-op" (fun () ->
        let o =
          run pair "MATCH (a:A)-[r]->(b) DETACH DELETE a SET a.x = 1 RETURN a"
        in
        Alcotest.(check int) "one node left" 1
          (Graph.node_count o.Cypher_core.Api.r_graph);
        check_value "returned null" vnull (first_cell o.Cypher_core.Api.r_table));
  ]

let legacy_tests =
  [
    case "legacy delete of an attached node goes through" (fun () ->
        (* ... as long as the statement ends wellformed *)
        let g =
          run_graph ~config:Config.cypher9 pair
            "MATCH (a:A)-[r]->(b) DELETE a DELETE r"
        in
        Alcotest.(check int) "one node" 1 (Graph.node_count g);
        Alcotest.(check bool) "wellformed at the end" true (Graph.is_wellformed g));
    case "legacy statement ending with dangling relationships errors" (fun () ->
        match
          Cypher_core.Api.run_string ~config:Config.cypher9 pair
            "MATCH (a:A) DELETE a"
        with
        | Error (Errors.Statement_dangling [ _ ]) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
        | Ok _ -> Alcotest.fail "should have failed the commit-time check");
    case "legacy: deleted node is still addressable from the table" (fun () ->
        let t =
          run_table ~config:Config.cypher9 pair
            "MATCH (a:A)-[r]->(b) DELETE a SET a.x = 1 DELETE r RETURN a, labels(a) AS ls"
        in
        let row = List.hd (Table.rows t) in
        (* the zombie node: still a node reference, empty observables *)
        Alcotest.(check bool) "node ref kept" true
          (match Record.find row "a" with Value.Node _ -> true | _ -> false);
        check_value "labels read as empty" (vlist []) (Record.find row "ls"));
    case "legacy: matching runs on the illegal intermediate graph" (fun () ->
        (* after force-deleting :A, the dangling :T no longer matches
           node-rel-node patterns; the statement itself then fails the
           commit-time check, which proves the MATCH executed on the
           illegal graph without failing *)
        match
          Cypher_core.Api.run_string ~config:Config.cypher9 pair
            "MATCH (a:A) DELETE a WITH a MATCH (x)-[r:T]->(y) RETURN r"
        with
        | Error (Errors.Statement_dangling _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
        | Ok o ->
            Alcotest.failf "expected commit-time failure, got %d rows"
              (Table.row_count o.Cypher_core.Api.r_table));
  ]

let suite = atomic_tests @ legacy_tests
