(** The slot-compiled row representation: {!Cypher_table.Slots} layout
    compilation, {!Cypher_table.Record} semantics over array rows, and
    query-level goldens on the scope shapes that stress a fixed layout —
    shadowing through WITH, OPTIONAL MATCH null padding, FOREACH's
    nested scope.  The goldens were captured from the string-keyed map
    representation these rows replaced. *)

open Cypher_graph
open Cypher_table
module Config = Cypher_core.Config
module Api = Cypher_core.Api

(* ------------------------------------------------------------------ *)
(* Slots layouts                                                      *)
(* ------------------------------------------------------------------ *)

let slots_tests =
  [
    Test_util.case "of_names dedups to first occurrence" (fun () ->
        let tab = Slots.of_names [ "a"; "b"; "a"; "c"; "b" ] in
        Alcotest.(check int) "width" 3 (Slots.width tab);
        Alcotest.(check (list string))
          "names in slot order" [ "a"; "b"; "c" ] (Slots.names tab);
        Alcotest.(check int) "a" 0 (Slots.index tab "a");
        Alcotest.(check int) "b" 1 (Slots.index tab "b");
        Alcotest.(check int) "c" 2 (Slots.index tab "c");
        Alcotest.(check int) "unknown" (-1) (Slots.index tab "zzz"));
    Test_util.case "extend appends and is memoized" (fun () ->
        let tab = Slots.of_names [ "a"; "b" ] in
        let tab' = Slots.extend tab "c" in
        Alcotest.(check int) "new slot at the end" 2 (Slots.index tab' "c");
        Alcotest.(check int) "old slots stable" 0 (Slots.index tab' "a");
        Alcotest.(check int) "base unchanged" (-1) (Slots.index tab "c");
        Alcotest.(check bool)
          "same extension, same table" true
          (Slots.extend tab "c" == tab'));
  ]

(* ------------------------------------------------------------------ *)
(* Records                                                            *)
(* ------------------------------------------------------------------ *)

let bindings = [ ("x", Value.Int 1); ("y", Value.String "s") ]

let record_tests =
  [
    Test_util.case "absent differs from an explicit null" (fun () ->
        let a = Record.seed (Slots.of_names [ "x"; "y"; "z" ]) (Record.of_list bindings) in
        Alcotest.(check bool) "unbound layout name reads as absent" true
          (Record.find_opt a "z" = None);
        Alcotest.(check bool) "not a member" false (Record.mem a "z");
        Alcotest.(check bool) "find pads with null" true
          (Record.find a "z" = Value.Null);
        let n = Record.bind a "z" Value.Null in
        Alcotest.(check bool) "explicit null is bound" true
          (Record.find_opt n "z" = Some Value.Null);
        Alcotest.(check (list string)) "absent slot invisible" [ "x"; "y" ]
          (Record.keys a);
        Alcotest.(check (list string)) "null slot visible" [ "x"; "y"; "z" ]
          (Record.keys n);
        Alcotest.(check bool) "absent row equals the unseeded row" true
          (Record.equal a (Record.of_list bindings));
        Alcotest.(check bool) "null row does not" false (Record.equal a n));
    Test_util.case "keys and bindings ascend whatever the slot order"
      (fun () ->
        let r =
          Record.of_list
            [ ("b", Value.Int 2); ("c", Value.Int 3); ("a", Value.Int 1) ]
        in
        Alcotest.(check (list string)) "keys" [ "a"; "b"; "c" ] (Record.keys r);
        Alcotest.(check (list string))
          "binding names" [ "a"; "b"; "c" ]
          (List.map fst (Record.bindings r));
        let r' =
          Record.of_list
            [ ("a", Value.Int 1); ("b", Value.Int 2); ("c", Value.Int 3) ]
        in
        Alcotest.(check bool) "equal across slot orders" true (Record.equal r r');
        Alcotest.(check int) "compare across slot orders" 0 (Record.compare r r');
        Alcotest.(check string) "printing" "(a: 1, b: 2, c: 3)"
          (Fmt.str "%a" Record.pp r));
    Test_util.case "slot_bind: store, idempotent rebind, conflict" (fun () ->
        let tab = Slots.of_names [ "x"; "y" ] in
        let r = Record.seed tab (Record.of_list [ ("x", Value.Int 1) ]) in
        let i = Slots.index tab "y" in
        (match Record.slot_bind r i (Value.Int 7) with
        | None -> Alcotest.fail "empty slot must bind"
        | Some r' -> (
            Alcotest.(check bool) "bound" true
              (Record.find_opt r' "y" = Some (Value.Int 7));
            Alcotest.(check bool) "base row untouched" true
              (Record.find_opt r "y" = None);
            match Record.slot_bind r' i (Value.Int 7) with
            | Some r'' ->
                Alcotest.(check bool) "equal rebind is the same row" true
                  (r'' == r')
            | None -> Alcotest.fail "equal rebind must succeed"));
        Alcotest.(check bool) "conflicting rebind fails" true
          (Record.slot_bind
             (Record.seed tab (Record.of_list bindings))
             0 (Value.Int 99)
          = None));
    Test_util.case "bind outside the layout extends it" (fun () ->
        let r = Record.seed (Slots.of_names [ "x" ]) (Record.of_list bindings) in
        let r' = Record.bind r "w" (Value.Bool true) in
        Alcotest.(check bool) "new binding visible" true
          (Record.find_opt r' "w" = Some (Value.Bool true));
        Alcotest.(check (list string)) "keys" [ "w"; "x" ] (Record.keys r');
        let tab', _ = Record.slots_view r' in
        Alcotest.(check (list string))
          "appended as the last slot" [ "x"; "w" ] (Slots.names tab');
        Alcotest.(check bool) "base row keeps its layout" true
          (Record.find_opt r "w" = None));
    Test_util.case "compile_find probes one layout, falls back on others"
      (fun () ->
        let tab = Slots.of_names [ "x"; "y" ] in
        let a = Record.seed tab (Record.of_list bindings) in
        let other = Record.of_list [ ("x", Value.Int 42) ] in
        let find = Record.compile_find a "x" in
        Alcotest.(check bool) "same-layout row" true
          (find a = Some (Value.Int 1));
        Alcotest.(check bool) "other layout falls back" true
          (find other = Some (Value.Int 42));
        let find_z = Record.compile_find a "zzz" in
        Alcotest.(check bool) "name outside the layout" true (find_z a = None));
    Test_util.case "binds onto the empty record leave it unchanged" (fun () ->
        (* the empty record's layout is process-global: a memoized
           extension per client-chosen name would grow it forever *)
        let before = Obj.reachable_words (Obj.repr Record.empty) in
        for i = 1 to 10_000 do
          let r = Record.bind Record.empty (Printf.sprintf "v%d" i) (Value.Int i) in
          assert (Record.keys r = [ Printf.sprintf "v%d" i ])
        done;
        Alcotest.(check int) "reachable words" before
          (Obj.reachable_words (Obj.repr Record.empty));
        Alcotest.(check int) "memoized extensions" 0
          (List.length (fst (Record.slots_view Record.empty)).Slots.exts));
  ]

(* ------------------------------------------------------------------ *)
(* Query-level goldens                                                *)
(* ------------------------------------------------------------------ *)

let setup =
  [
    "CREATE (:A {id: 1, x: 10})-[:R]->(:B {id: 2, x: 20})";
    "CREATE (:A {id: 3, x: 30})-[:R]->(:B {id: 4, x: 40})";
    "CREATE (:C {id: 5})";
  ]

let graph_of_nodes extra =
  "graph {\n       (0:A {id: 1, x: 10})\n       (1:B {id: 2, "
  ^ extra "2" ^ "x: 20})\n       (3:A {id: 3, x: 30})\n       (4:B {id: 4, "
  ^ extra "4" ^ "x: 40})\n       (6:C {id: 5})\n"

let setup_graph =
  graph_of_nodes (fun _ -> "")
  ^ "       (0)-[2:R]->(1)\n       (3)-[5:R]->(4)\n}"

(* (query, expected table, expected graph) *)
let goldens =
  [
    (* single-pattern expansion: row order is pinned *)
    ( "MATCH (a:A)-[r:R]->(b:B) RETURN a.id AS aid, b.id AS bid",
      "| aid | bid |\n| 1 | 2 |\n| 3 | 4 |",
      setup_graph );
    ( "MATCH (a)-[r]-(b) RETURN a.id AS aid, b.id AS bid",
      "| aid | bid |\n| 1 | 2 |\n| 2 | 1 |\n| 3 | 4 |\n| 4 | 3 |",
      setup_graph );
    (* WITH renaming and shadowing: the layout changes at each clause *)
    ( "MATCH (a:A) WITH a.id AS n WITH n AS m, n * 2 AS n RETURN m, n",
      "| m | n |\n| 1 | 2 |\n| 3 | 6 |",
      setup_graph );
    ( "MATCH (a:A) WITH a.x AS x MATCH (b:B) WHERE b.x > x RETURN x, b.id AS \
       bid",
      "| x | bid |\n| 10 | 2 |\n| 10 | 4 |\n| 30 | 4 |",
      setup_graph );
    (* OPTIONAL MATCH pads pattern variables with nulls in-layout *)
    ( "MATCH (a:A) OPTIONAL MATCH (a)-[:R]->(z:Missing) RETURN a.id AS aid, z",
      "| aid | z |\n| 1 | null |\n| 3 | null |",
      setup_graph );
    ( "OPTIONAL MATCH (c:C)-[:R]->(z) RETURN c.id AS cid, z",
      "| cid | z |\n| null | null |",
      setup_graph );
    (* UNWIND drives the slot row through expansion and filtering *)
    ( "UNWIND [3, 1, 2] AS i WITH i WHERE i > 1 RETURN i ORDER BY i",
      "| i |\n| 2 |\n| 3 |",
      setup_graph );
    ( "MATCH (a:A) UNWIND [1, 2] AS k RETURN a.id AS aid, k",
      "| aid | k |\n| 1 | 1 |\n| 1 | 2 |\n| 3 | 1 |\n| 3 | 2 |",
      setup_graph );
    (* FOREACH opens a nested scope over the driving row *)
    ( "MATCH (a:A) FOREACH (i IN [1, 2] | CREATE (:T {k: i, src: a.id}))",
      "| a |\n| #node(0) |\n| #node(3) |",
      graph_of_nodes (fun _ -> "")
      ^ "       (7:T {k: 1, src: 1})\n       (8:T {k: 2, src: 1})\n\
        \       (9:T {k: 1, src: 3})\n       (10:T {k: 2, src: 3})\n\
        \       (0)-[2:R]->(1)\n       (3)-[5:R]->(4)\n}" );
    ( "MATCH (a:A)-[:R]->(b:B) SET b.seen = a.id RETURN count(*) AS n",
      "| n |\n| 2 |",
      graph_of_nodes (fun id -> if id = "2" then "seen: 1, " else "seen: 3, ")
      ^ "       (0)-[2:R]->(1)\n       (3)-[5:R]->(4)\n}" );
  ]

let run config g src =
  match Api.run_string ~config g src with
  | Ok o -> (o.Api.graph, o.Api.table)
  | Error e ->
      Alcotest.failf "query failed: %s" (Cypher_core.Errors.to_string e)

let build config = List.fold_left (fun g src -> fst (run config g src)) Graph.empty setup

let golden_checks =
  let config = Config.revised in
  List.map
    (fun (src, table, graph) ->
      Test_util.case (Printf.sprintf "golden: %s" src) (fun () ->
          let g, t = run config (build config) src in
          Alcotest.(check string) "table bytes" table (Table.to_string t);
          Alcotest.(check string) "graph bytes" graph (Graph.to_string g)))
    goldens

(* the same goldens on a plan-cache hit: the second run of the text in
   one session reuses the compiled statement and its memoized match
   plans, and must lay out and order rows exactly as the first *)
let cached_golden_checks =
  let config = Config.revised in
  List.map
    (fun (src, table, graph) ->
      Test_util.case (Printf.sprintf "golden (plan-cache hit): %s" src) (fun () ->
          let r = Test_util.run_cached ~config (build config) src in
          Alcotest.(check string) "table bytes" table (Table.to_string r.Api.r_table);
          Alcotest.(check string) "graph bytes" graph (Graph.to_string r.Api.r_graph)))
    goldens

let suite = slots_tests @ record_tests @ golden_checks @ cached_golden_checks
