(** End-to-end integration scenarios: multi-statement programs through
    the public API, CSV import pipelines, parameters, and mixed
    read–write sessions. *)

open Cypher_graph
open Cypher_table
open Test_util
module Api = Cypher_core.Api
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors

let run_program ?(config = Config.revised) g src =
  match Api.run_program ~config g src with
  | Ok result -> result
  | Error e -> Alcotest.failf "program failed: %s" (Errors.to_string e)

let social_network_setup =
  "CREATE (ada:Person {name: 'Ada', born: 1815}),\n\
  \       (alan:Person {name: 'Alan', born: 1912}),\n\
  \       (grace:Person {name: 'Grace', born: 1906}),\n\
  \       (ada)-[:KNOWS {since: 1830}]->(alan),\n\
  \       (alan)-[:KNOWS {since: 1936}]->(grace),\n\
  \       (grace)-[:KNOWS {since: 1940}]->(ada);"

let suite =
  [
    case "social network lifecycle" (fun () ->
        let program =
          social_network_setup
          ^ "MATCH (p:Person) RETURN count(*) AS people;\n\
             MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.born < b.born \
             RETURN a.name AS elder, b.name AS younger ORDER BY elder;\n\
             MATCH (p:Person {name: 'Alan'}) SET p:Pioneer, p.field = \
             'computing';\n\
             MATCH (p:Pioneer) RETURN p.name, p.field;\n\
             MATCH (a:Person {name: 'Ada'})-[k:KNOWS]->() DELETE k;\n\
             MATCH (a:Person)-[:KNOWS]->() RETURN count(*) AS remaining;"
        in
        let g, tables = run_program Graph.empty program in
        Alcotest.(check int) "statements" 7 (List.length tables);
        check_value "three people" (vint 3) (first_cell (List.nth tables 1));
        (* only Ada(1815) -> Alan(1912) satisfies a.born < b.born *)
        check_value "one elder pair" (vint 1)
          (Value.Int (Table.row_count (List.nth tables 2)));
        check_value "pioneer" (vstr "Alan")
          (Record.find (List.hd (Table.rows (List.nth tables 4))) "p.name");
        check_value "two knows left" (vint 2) (first_cell (List.nth tables 6));
        Alcotest.(check int) "graph intact" 3 (Graph.node_count g));
    case "csv to graph to report pipeline" (fun () ->
        let table =
          Cypher_csv.Csv.table_of_string
            "name,dept,salary\nada,eng,120\nalan,eng,110\ngrace,nav,130\n"
        in
        (* drive the table through a MERGE, then query normally *)
        let g, _ =
          Cypher_paper.Runner.run_merge_mode Config.revised
            ~mode:Cypher_ast.Ast.Merge_same
            "MERGE (:Employee {name: name})-[:IN]->(:Dept {name: dept})"
            (Graph.empty, table)
        in
        let t =
          run_table g
            "MATCH (e:Employee)-[:IN]->(d:Dept) RETURN d.name AS dept, \
             count(*) AS headcount ORDER BY dept"
        in
        Alcotest.(check (list value_testable)) "depts" [ vstr "eng"; vstr "nav" ]
          (column t "dept");
        Alcotest.(check (list value_testable)) "counts" [ vint 2; vint 1 ]
          (column t "headcount"));
    case "parameters flow through statements" (fun () ->
        let config =
          Config.(
            with_param "who" (vstr "Ada") (with_param "year" (vint 1815) revised))
        in
        let g =
          run_graph ~config Graph.empty
            "CREATE (:Person {name: $who, born: $year})"
        in
        let t =
          run_table ~config g "MATCH (p:Person {name: $who}) RETURN p.born"
        in
        check_value "born" (vint 1815) (first_cell t));
    case "error stops a program and reports position" (fun () ->
        match
          Api.run_program ~config:Config.revised Graph.empty
            "CREATE (:A); THIS IS NOT CYPHER; CREATE (:B);"
        with
        | Error (Errors.Parse_error _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
        | Ok _ -> Alcotest.fail "should have failed");
    case "semantics differ end to end on the same program" (fun () ->
        let program =
          "CREATE (:P {name: 'a', v: 1}), (:P {name: 'b', v: 2});\n\
           MATCH (x:P {name: 'a'}), (y:P {name: 'b'}) SET x.v = y.v, y.v = x.v;\n\
           MATCH (p:P) RETURN p.name AS n, p.v AS v ORDER BY n;"
        in
        let _, legacy = run_program ~config:Config.cypher9 Graph.empty program in
        let _, revised = run_program ~config:Config.revised Graph.empty program in
        let vs tables = column (List.nth tables 2) "v" in
        Alcotest.(check (list value_testable)) "legacy overwrites"
          [ vint 2; vint 2 ] (vs legacy);
        Alcotest.(check (list value_testable)) "revised swaps"
          [ vint 2; vint 1 ] (vs revised));
    case "mixed read-write statement with aggregation" (fun () ->
        let o =
          run Graph.empty
            "UNWIND range(1, 6) AS x CREATE (n:N {v: x}) WITH n WHERE n.v % 2 \
             = 0 SET n:Even WITH count(*) AS evens MATCH (e:Even) RETURN \
             evens, count(e) AS relabeled"
        in
        let row = List.hd (Table.rows o.Api.r_table) in
        check_value "evens" (vint 3) (Record.find row "evens");
        check_value "relabeled" (vint 3) (Record.find row "relabeled"));
    case "merge all then merge same interplay" (fun () ->
        (* ALL creates duplicates; a later SAME matches them all and
           creates nothing *)
        let g, tables =
          run_program Graph.empty
            "UNWIND [1, 1] AS x MERGE ALL (:K {v: x});\n\
             UNWIND [1, 1] AS x MERGE SAME (:K {v: x});\n\
             MATCH (k:K) RETURN count(*) AS n;"
        in
        ignore g;
        check_value "still two" (vint 2) (first_cell (List.nth tables 2)));
    case "foreach-driven denormalisation" (fun () ->
        let o =
          run Graph.empty
            "CREATE (o:Order {items: ['a', 'b', 'c']}) WITH o FOREACH (i IN \
             o.items | CREATE (o)-[:HAS]->(:Item {sku: i})) WITH o MATCH \
             (o)-[:HAS]->(i) RETURN count(i) AS items"
        in
        check_value "three items" (vint 3) (first_cell o.Api.r_table));
    case "union across semantics boundaries" (fun () ->
        let t =
          run_table Graph.empty
            "UNWIND [1, 2] AS x RETURN x UNION UNWIND [2, 3] AS x RETURN x"
        in
        Alcotest.(check (list value_testable)) "distinct union"
          [ vint 1; vint 2; vint 3 ] (column t "x"));
    case "dot export contains every entity" (fun () ->
        let g = graph_of "CREATE (:A {x: 1})-[:T]->(:B)" in
        let dot = Dot.to_dot g in
        List.iter
          (fun needle ->
            let contains s sub =
              let n = String.length s and m = String.length sub in
              let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
              m = 0 || loop 0
            in
            Alcotest.(check bool) needle true (contains dot needle))
          [ "digraph"; ":A"; ":B"; ":T"; "x = 1"; "->" ]);
  ]
