(** Differential testing: the production MERGE ALL / MERGE SAME agree
    with the naive transcription of the Section 8.2 definitions
    ([Cypher_paper.Reference]) on random driving tables — both in the
    output graph (up to isomorphism) and in the table's shape. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
open Cypher_paper
module Config = Cypher_core.Config

let gen_row =
  QCheck.Gen.(
    map3
      (fun cid pid date ->
        Record.of_list
          [
            ("cid", Value.Int cid);
            ("pid", (match pid with 0 -> Value.Null | p -> Value.Int p));
            ("date", Value.String (string_of_int date));
          ])
      (int_range 1 3) (int_range 0 2) (int_range 0 5))

let gen_table =
  QCheck.Gen.(
    map
      (fun rows -> Table.make [ "cid"; "pid"; "date" ] rows)
      (list_size (int_range 0 8) gen_row))

let arb_table = QCheck.make ~print:Table.to_string gen_table

let merge_src = Fixtures.example5_merge

let patterns_of src =
  match Runner.parse_clause src with
  | Merge { patterns; _ } -> patterns
  | _ -> failwith "expected MERGE"

let patterns = patterns_of merge_src

(* a non-empty base graph so condition (iii)/(v) — old entities collapse
   only with themselves — is exercised: it contains two equal nodes that
   MUST stay distinct under SAME *)
let base_graph =
  Fixtures.build
    [
      ([ "User" ], [ ("id", Value.Int 1) ]);
      ([ "User" ], [ ("id", Value.Int 1) ]);
      ([ "Product" ], [ ("id", Value.Int 2) ]);
    ]
    [ (0, "ORDERED", 2) ]

let production mode g table =
  Runner.run_merge_mode Config.permissive ~mode merge_src (g, table)

let agree mode reference g table =
  let gp, tp = production mode g table in
  let gr, tr = reference g table patterns in
  Iso.isomorphic gp gr
  && Table.row_count tp = Table.row_count tr
  && Table.columns tp = Table.columns tr

let tests =
  [
    QCheck.Test.make
      ~name:"MERGE ALL agrees with the Section 8.2 transcription (empty graph)"
      ~count:120 arb_table
      (fun table -> agree Merge_all Reference.merge_all Graph.empty table);
    QCheck.Test.make
      ~name:"MERGE SAME agrees with the Section 8.2 transcription (empty graph)"
      ~count:120 arb_table
      (fun table -> agree Merge_same Reference.merge_same Graph.empty table);
    QCheck.Test.make
      ~name:"MERGE ALL agrees on a pre-populated graph"
      ~count:120 arb_table
      (fun table -> agree Merge_all Reference.merge_all base_graph table);
    QCheck.Test.make
      ~name:"MERGE SAME agrees on a pre-populated graph"
      ~count:120 arb_table
      (fun table -> agree Merge_same Reference.merge_same base_graph table);
    QCheck.Test.make
      ~name:"reference SAME keeps pre-existing duplicates distinct"
      ~count:60 arb_table
      (fun table ->
        let g, _ = Reference.merge_same base_graph table patterns in
        (* the two equal :User{id:1} nodes of the base graph survive
           (condition iii: old nodes collapse only with themselves);
           failing cid=1 rows may add at most one more *)
        let count =
          List.length
            (List.filter
               (fun (n : Graph.node) ->
                 Graph.has_label g n.Graph.n_id "User"
                 && Value.equal_strict
                      (Props.get n.Graph.n_props "id")
                      (Value.Int 1))
               (Graph.nodes g))
        in
        count = 2 || count = 3);
  ]

let figure_checks =
  [
    Test_util.case "reference reproduces Figures 7a and 7c" (fun () ->
        let g_all, _ =
          Reference.merge_all Graph.empty Fixtures.example5_table patterns
        in
        let g_same, _ =
          Reference.merge_same Graph.empty Fixtures.example5_table patterns
        in
        Alcotest.check Test_util.graph_iso_testable "7a" Fixtures.figure7a g_all;
        Alcotest.check Test_util.graph_iso_testable "7c" Fixtures.figure7c g_same);
    Test_util.case "reference reproduces Figures 9a and 9b" (fun () ->
        let ps = patterns_of Fixtures.example7_merge in
        let g_all, _ =
          Reference.merge_all Fixtures.example7_graph Fixtures.example7_table ps
        in
        let g_same, _ =
          Reference.merge_same Fixtures.example7_graph Fixtures.example7_table ps
        in
        Alcotest.check Test_util.graph_iso_testable "9a" Fixtures.figure9a g_all;
        Alcotest.check Test_util.graph_iso_testable "9b" Fixtures.figure9b g_same);
  ]

(* ------------------------------------------------------------------ *)
(* Planner on/off differential sweep                                  *)
(* ------------------------------------------------------------------ *)

(* Cost-guided planning must only reorder the enumeration of candidate
   bindings: with the planner on and off, a read query returns the same
   bag of rows and an update query produces the same graph (up to the
   ids assigned along the changed enumeration order). *)
module Api = Cypher_core.Api

let planner_on = Config.revised
let planner_off = Config.with_planner Config.Off Config.revised

(* a graph with skewed statistics (few vendors, many users), a label-less
   fringe, and a registered property index, so every anchor kind — bound,
   prop-index, label and scan — is exercised *)
let sweep_graph =
  let g =
    Fixtures.marketplace_graph ~vendors:3 ~products:11 ~users:40
      ~orders_per_user:2
  in
  let _, g = Graph.create_node ~props:(Props.of_list [ ("loose", Value.Int 1) ]) g in
  Graph.add_prop_index ~label:"User" ~key:"id" g

let read_queries =
  [
    "MATCH (u:User) RETURN count(*) AS n";
    "MATCH (u:User)-[:ORDERED]->(p:Product) RETURN u.id AS uid, p.id AS pid";
    "MATCH (u:User)-[o:ORDERED]->(p:Product)<-[f:OFFERS]-(v:Vendor) RETURN \
     u.id AS uid, v.id AS vid";
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User {id: \
     100003}) RETURN v.name AS vn, p.name AS pn";
    "MATCH (a)-[r]->(b) WHERE a.id = 0 RETURN b.id AS bid";
    "MATCH (a)-[:OFFERS|ORDERED]-(b:Product) RETURN count(*) AS n";
    "MATCH (v:Vendor)-[:OFFERS*1..2]->(x) RETURN v.id AS vid, x.id AS xid";
    "MATCH p = (u:User {id: 100007})-[:ORDERED]->(x) RETURN length(p) AS l, \
     x.id AS xid";
    "MATCH (u:User), (v:Vendor) WHERE u.id % 10 = v.id RETURN u.id AS uid, \
     v.id AS vid";
    "MATCH (u:User {id: 100011}) OPTIONAL MATCH (u)-[:ORDERED]->(p) RETURN \
     p.id AS pid";
  ]

let update_queries =
  [
    "MATCH (u:User)-[:ORDERED]->(p:Product) SET p.sold = true RETURN \
     count(*) AS n";
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User) CREATE \
     (u)-[:KNOWS]->(v) RETURN count(*) AS n";
    "MATCH (u:User) WHERE u.id % 7 = 0 SET u:Flagged REMOVE u.name RETURN \
     count(*) AS n";
    "MERGE SAME (:User {id: 100001})-[:ORDERED]->(:Product {id: 1004})";
    "MATCH (u:User)-[:ORDERED]->(p:Product) WHERE u.id % 7 = 0 SET p.hot = \
     true WITH u, count(*) AS n MERGE ALL (u)-[:SCORED]->(:Score {v: n}) \
     RETURN count(*) AS total";
  ]

let run_with config src =
  match Api.run_string ~config sweep_graph src with
  | Ok { Api.graph; table } -> (graph, table)
  | Error e -> Alcotest.failf "query failed: %s" (Cypher_core.Errors.to_string e)

(* bag equality of tables: rows as sorted binding lists *)
let sorted_rows t =
  List.sort compare (List.map Record.bindings (Table.rows t))

let planner_checks =
  List.map
    (fun src ->
      Test_util.case ("planner on/off agree (read): " ^ src) (fun () ->
          let g_on, t_on = run_with planner_on src in
          let g_off, t_off = run_with planner_off src in
          Alcotest.(check bool) "graph untouched (on)" true (g_on == sweep_graph || Iso.isomorphic g_on sweep_graph);
          Alcotest.(check bool) "graph untouched (off)" true (g_off == sweep_graph || Iso.isomorphic g_off sweep_graph);
          Alcotest.(check (list string)) "columns" (Table.columns t_off) (Table.columns t_on);
          Alcotest.(check bool) "same row bag" true
            (sorted_rows t_on = sorted_rows t_off)))
    read_queries
  @ List.map
      (fun src ->
        Test_util.case ("planner on/off agree (update): " ^ src) (fun () ->
            let g_on, t_on = run_with planner_on src in
            let g_off, t_off = run_with planner_off src in
            Alcotest.check Test_util.graph_iso_testable "graphs" g_off g_on;
            Alcotest.(check (list string)) "columns" (Table.columns t_off) (Table.columns t_on);
            Alcotest.(check int) "row count" (Table.row_count t_off) (Table.row_count t_on)))
      update_queries

(* MERGE under every revised mode with the planner on and off: the split
   into Tmatch/Tfail must not depend on the enumeration order *)
let planner_merge_checks =
  [
    QCheck.Test.make
      ~name:"planner on/off agree across MERGE modes (random tables)"
      ~count:60 arb_table
      (fun table ->
        List.for_all
          (fun mode ->
            let g_on, t_on =
              Runner.run_merge_mode
                (Config.with_planner Config.On Config.permissive)
                ~mode merge_src (base_graph, table)
            in
            let g_off, t_off =
              Runner.run_merge_mode
                (Config.with_planner Config.Off Config.permissive)
                ~mode merge_src (base_graph, table)
            in
            Iso.isomorphic g_on g_off
            && Table.row_count t_on = Table.row_count t_off
            && Table.columns t_on = Table.columns t_off)
          [ Merge_all; Merge_grouping; Merge_weak_collapse; Merge_collapse;
            Merge_same ]);
  ]

(* ------------------------------------------------------------------ *)
(* Planner × parallelism × backend 2×2×2 sweep                        *)
(* ------------------------------------------------------------------ *)

(* Parallel read phases must be unobservable (DESIGN.md "Parallel read
   phases"): for each planner setting, running with the domain pool
   fanned out must produce byte-identical tables and graphs to the
   serial run.  This is strictly stronger than the bag equality the
   planner sweep above settles for — parallelism may not even reorder.
   The chunk threshold is forced down to 1 so the small sweep tables
   actually split across domains.  The sweep runs once per physical
   backend: the compact CSR layout must be just as unobservable as the
   pool (same enumeration order, hence the same bytes). *)
module Pool = Cypher_util.Pool

let parallelism_checks =
  let settings =
    [ ("planner-on", planner_on); ("planner-off", planner_off) ]
  in
  let backends = [ ("persistent", `Persistent); ("compact", `Compact) ] in
  List.concat_map
    (fun (plabel, cfg) ->
      List.concat_map
        (fun (blabel, backend) ->
          let cfg = Config.with_backend backend cfg in
          List.map
            (fun src ->
              Test_util.case
                (Printf.sprintf "par=4 byte-identical to par=0 (%s, %s): %s"
                   plabel blabel src)
                (fun () ->
                  let serial_g, serial_t =
                    run_with (Config.with_parallelism 0 cfg) src
                  in
                  let par_g, par_t =
                    Pool.with_chunk_min 1 (fun () ->
                        run_with (Config.with_parallelism 4 cfg) src)
                  in
                  Alcotest.(check string) "table bytes"
                    (Table.to_string serial_t) (Table.to_string par_t);
                  Alcotest.(check string) "graph bytes"
                    (Graph.to_string serial_g) (Graph.to_string par_g)))
            (read_queries @ update_queries))
        backends)
    settings

(* ------------------------------------------------------------------ *)
(* Planner × backend sweep against the map-row goldens                *)
(* ------------------------------------------------------------------ *)

(* Rows are flat arrays over a compiled slot layout; they replaced a
   string-keyed map representation, and that change must be
   unobservable.  For every planner setting and physical backend the
   sweep's table and graph bytes must hash to the MD5 digests captured
   from the map-row implementation — same rows, same order, same graph,
   so the array-row fast paths (including the matcher's deferred and
   natural-order enumerations) change nothing.  One entry per sweep
   query, in [read_queries @ update_queries] order:
   ((table, graph) planner on, (table, graph) planner off); both
   backends share the digests. *)
let map_row_goldens =
  [
    ( ("ddab9e0cd99a6ca4e87614725aee13a7", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("ddab9e0cd99a6ca4e87614725aee13a7", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("4cefa1ce22bc20b23e00e05d1dc28f8b", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("1919f1360d3ee1053a8fad12872d761e", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("12e264e077d918a166c00be70a0f0ad4", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("b039b27150138f01bec6abf6071eb9d0", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("854f3f42c8ab92fc76c183a7b745e11c", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("854f3f42c8ab92fc76c183a7b745e11c", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("58db80120e555e862ef86ce14b1b0f07", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("58db80120e555e862ef86ce14b1b0f07", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("11c3fd720ab2a1e501b76a693b38c806", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("11c3fd720ab2a1e501b76a693b38c806", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("e8af7339c53a9893943742dfb751fe8f", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("e8af7339c53a9893943742dfb751fe8f", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("1f5d43e6b14945cc67311e7430e603ce", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("1f5d43e6b14945cc67311e7430e603ce", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("181a588306b49a1f30b3c57ab863af1e", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("181a588306b49a1f30b3c57ab863af1e", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("df1eaa0a1ae7902717386a4ab5939c5a", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("df1eaa0a1ae7902717386a4ab5939c5a", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("e657f986fa04a24107484e1563baacf4", "a4fb419b804f8bd5e7458545fb153c38"),
      ("e657f986fa04a24107484e1563baacf4", "a4fb419b804f8bd5e7458545fb153c38") );
    ( ("e657f986fa04a24107484e1563baacf4", "f34bfbe03b1b2c6dab0f8199bb8123d9"),
      ("e657f986fa04a24107484e1563baacf4", "f34bfbe03b1b2c6dab0f8199bb8123d9") );
    ( ("bec04ca6e6fe6d5c6556a7b175d0b90f", "1d07c6534648ec86a2c299c087c8da2e"),
      ("bec04ca6e6fe6d5c6556a7b175d0b90f", "1d07c6534648ec86a2c299c087c8da2e") );
    ( ("d1f5e7bf3c632c25fb6ede6169c35e31", "9a57f5e4106e23da619cdf1246b1faed"),
      ("d1f5e7bf3c632c25fb6ede6169c35e31", "9a57f5e4106e23da619cdf1246b1faed") );
    ( ("7301a37f59d457d1a1020cb7966a9caf", "ebf402be617c809788e9bb6a1bd0c335"),
      ("7301a37f59d457d1a1020cb7966a9caf", "9d190a99a85abe142828672453d90d0e") );
  ]

let golden_checks =
  let digest s = Digest.to_hex (Digest.string s) in
  let settings =
    [ ("planner-on", planner_on, fst); ("planner-off", planner_off, snd) ]
  in
  let backends = [ ("persistent", `Persistent); ("compact", `Compact) ] in
  let cases = List.combine (read_queries @ update_queries) map_row_goldens in
  List.concat_map
    (fun (plabel, cfg, pick) ->
      List.concat_map
        (fun (blabel, backend) ->
          let cfg = Config.with_backend backend cfg in
          List.map
            (fun (src, golden) ->
              Test_util.case
                (Printf.sprintf "bytes match the map-row goldens (%s, %s): %s"
                   plabel blabel src)
                (fun () ->
                  let g, t = run_with cfg src in
                  let table_md5, graph_md5 = pick golden in
                  Alcotest.(check string) "table bytes md5" table_md5
                    (digest (Table.to_string t));
                  Alcotest.(check string) "graph bytes md5" graph_md5
                    (digest (Graph.to_string g))))
            cases)
        backends)
    settings

let suite =
  List.map QCheck_alcotest.to_alcotest tests
  @ figure_checks @ planner_checks
  @ List.map QCheck_alcotest.to_alcotest planner_merge_checks
  @ parallelism_checks @ golden_checks
