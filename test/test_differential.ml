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
(* Planner × match mode × execution context sweep                     *)
(* ------------------------------------------------------------------ *)

(* The server runs every read on a reader-pool worker domain against a
   pinned snapshot (DESIGN.md "Snapshot reads on worker domains"): for
   each planner setting and match mode, a statement run there must
   produce byte-identical tables and graphs to the run on the calling
   domain.  This is strictly stronger than the bag equality the planner
   sweep above settles for.  Homomorphic matching drops the
   relationship-isomorphism scan, so it enumerates a different row set
   that must not move either. *)
let execution_context_checks =
  let settings =
    [ ("planner-on", planner_on); ("planner-off", planner_off) ]
  in
  let modes = [ ("", Config.Isomorphic); (", homomorphic", Config.Homomorphic) ] in
  List.concat_map
    (fun (plabel, cfg) ->
      List.concat_map
        (fun (mlabel, mode) ->
          let cfg = Config.with_match_mode mode cfg in
          List.map
            (fun src ->
              Test_util.case
                (Printf.sprintf
                   "reader-pool worker byte-identical to calling domain (%s%s): %s"
                   plabel mlabel src)
                (fun () ->
                  let bytes (g, t) = (Table.to_string t, Graph.to_string g) in
                  let here_t, here_g = bytes (run_with cfg src) in
                  let pool_t, pool_g =
                    Test_util.on_worker (fun () -> bytes (run_with cfg src))
                  in
                  Alcotest.(check string) "table bytes" here_t pool_t;
                  Alcotest.(check string) "graph bytes" here_g pool_g))
            (read_queries @ update_queries))
        modes)
    settings

(* ------------------------------------------------------------------ *)
(* Planner × plan-cache sweep against the map-row goldens             *)
(* ------------------------------------------------------------------ *)

(* Rows are flat arrays over a compiled slot layout; they replaced a
   string-keyed map representation, and that change must be
   unobservable.  For every planner setting, on a first run and on a
   plan-cache hit, the sweep's table and graph bytes must hash to the MD5
   digests captured from the map-row implementation — same rows, same order, same graph, so the array-row
   fast paths (including the matcher's planned enumeration) change
   nothing.  One entry per sweep query, in
   [read_queries @ update_queries] order:
   ((table, graph) planner on, (table, graph) planner off). *)
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

(* [run_cached config src] is the second run of [src] in one session:
   the plan-cache hit every served read after the first is *)
let run_cached config src =
  let r = Test_util.run_cached ~config sweep_graph src in
  (r.Api.r_graph, r.Api.r_table)

(* One check per (planner, execution, query): the table and graph
   bytes hash to the query's golden digests, on a first run and on a
   plan-cache hit; [what] names the golden set. *)
let golden_sweep ~what cases =
  let digest s = Digest.to_hex (Digest.string s) in
  let settings =
    [ ("planner-on", planner_on, fst); ("planner-off", planner_off, snd) ]
  in
  let executions = [ ("", run_with); (", plan-cache hit", run_cached) ] in
  List.concat_map
    (fun (plabel, cfg, pick) ->
      List.concat_map
        (fun (elabel, run) ->
          List.map
            (fun ((mode, src), golden) ->
              Test_util.case
                (Printf.sprintf "bytes match the %s goldens (%s%s%s): %s" what
                   plabel elabel
                   (if mode = Config.Homomorphic then ", homomorphic" else "")
                   src)
                (fun () ->
                  let g, t = run (Config.with_match_mode mode cfg) src in
                  let table_md5, graph_md5 = pick golden in
                  Alcotest.(check string) "table bytes md5" table_md5
                    (digest (Table.to_string t));
                  Alcotest.(check string) "graph bytes md5" graph_md5
                    (digest (Graph.to_string g))))
            cases)
        executions)
    settings

let golden_checks =
  golden_sweep ~what:"map-row"
    (List.combine
       (List.map
          (fun src -> (Config.Isomorphic, src))
          (read_queries @ update_queries))
       map_row_goldens)

(* ------------------------------------------------------------------ *)
(* Planned-fold shapes against goldens                                *)
(* ------------------------------------------------------------------ *)

(* Queries whose planned patterns carry already-bound or repeated
   variables, property expressions over bound variables, path names,
   variable-length hops behind a non-start anchor, rows from outside a
   seeded layout (MERGE), or end in a fused count over a pattern tuple —
   plus one homomorphic query.  Their table and graph bytes, for both
   planner settings, on a first run and on a plan-cache hit, must hash
   to digests captured before the planned enumeration was collapsed
   into one fold: the planner-on row order is observable, so "same
   rows" is not enough. *)
let fold_queries =
  [
    (Config.Isomorphic,
     "MATCH (u:User) MATCH (v:Vendor)-[:OFFERS]->(p)<-[:ORDERED]-(u) RETURN \
      v.id AS vid, p.id AS pid, u.id AS uid");
    (Config.Isomorphic,
     "MATCH (u:User), (v:Vendor) WHERE u.id % 5 = v.id MATCH \
      (v)-[:OFFERS]->(p)<-[o:ORDERED]-(u) RETURN v.id AS vid, p.id AS pid, \
      u.id AS uid, o AS o");
    (Config.Isomorphic,
     "MATCH (u:User)-[:ORDERED]->(p)<-[:ORDERED]-(w:User)-[:ORDERED]->(q)<-[:ORDERED]-(u) \
      RETURN u.id AS uid, p.id AS pid, w.id AS wid, q.id AS qid");
    (Config.Isomorphic,
     "MATCH p = (a)<-[:ORDERED]-(u:User {id: 100013})-[:ORDERED]->(b)<-[:ORDERED]-(w)-[:ORDERED]->(a) \
      RETURN p, a.id AS aid, b.id AS bid, w.id AS wid");
    (Config.Isomorphic,
     "MATCH (u:User) MATCH (u)-[:ORDERED]->(p {id: u.id}) RETURN u.id AS uid, \
      p.id AS pid");
    (Config.Isomorphic,
     "MATCH (q:Product) WHERE q.id % 4 = 1 MATCH \
      (u:User)-[:ORDERED]->(p:Product {id: q.id})<-[:OFFERS]-(v {id: (q.id - \
      1000) % 3}) RETURN q.id AS qid, u.id AS uid, v.id AS vid");
    (Config.Isomorphic,
     "MATCH p = (x)<-[:ORDERED]-(u:User {id: 100007})-[:ORDERED]->(y) RETURN \
      p, x.id AS xid, y.id AS yid");
    (Config.Isomorphic,
     "MATCH p = (v:Vendor)-[r:OFFERS]->(x)<-[:ORDERED]-(u:User {id: 100012}) \
      RETURN p, r");
    (Config.Isomorphic,
     "MATCH (x)-[:OFFERS*1..2]->(p:Product)<-[:ORDERED]-(u:User {id: 100003}) \
      RETURN x.id AS xid, p.id AS pid");
    (Config.Isomorphic,
     "MATCH path = (a)-[rs:OFFERS|ORDERED*1..3]-(b:User {id: 100005}) RETURN \
      path, rs, a.id AS aid");
    (Config.Isomorphic,
     "MATCH (u:User), (p:Product) WHERE u.id % 13 = 0 AND p.id % 3 = 0 MERGE \
      ALL (u)-[:ORDERED]->(p) RETURN count(*) AS n");
    (Config.Isomorphic,
     "MATCH (u:User) WHERE u.id % 9 = 0 MERGE ALL \
      (u)-[r:ORDERED]->(p:Product {id: 1003}) RETURN u.id AS uid, p.id AS pid");
    (Config.Isomorphic,
     "MATCH (u:User)-[:ORDERED]->(p), (p)<-[:OFFERS]-(v) RETURN count(*) AS n");
    (Config.Isomorphic,
     "MATCH (a:User)-[:ORDERED]->(p)<-[:ORDERED]-(b:User), \
      (p)<-[:OFFERS]-(v:Vendor) RETURN count(*) AS n");
    (Config.Isomorphic,
     "MATCH (v:Vendor {id: 1}) MATCH (v)-[:OFFERS]->(p)<-[:ORDERED*1..1]-(u) \
      RETURN count(*) AS n");
    (Config.Isomorphic,
     "MATCH (v:Vendor {id: 0})-[:OFFERS]->(p)-[:OFFERS|ORDERED*1..2]-(x)-[:OFFERS|ORDERED]-(y) \
      RETURN count(*) AS n");
    (Config.Isomorphic,
     "MATCH (u:User {id: 100003})-[:ORDERED]->(p)-[:OFFERS|ORDERED*1..2]-(x)-[:ORDERED]-(y:User) \
      RETURN p.id AS pid, x.id AS xid, y.id AS yid");
    (Config.Homomorphic,
     "MATCH (u:User {id: 100004})-[:ORDERED]->(p)<-[:ORDERED]-(w), \
      (w)-[:ORDERED]->(q)<-[:ORDERED]-(u) RETURN w.id AS wid, p.id AS pid, \
      q.id AS qid");
  ]

let fold_goldens =
  [
    ( ("76c047b68b6c2b493ac65a350e1fe0a7", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("31c54196edc7450fd37dc9f7eefe8ff5", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("2eab704d431a654f7335e817514cee6f", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("2eab704d431a654f7335e817514cee6f", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("48ead9dfa21ff55e99cdba8bc3f0c6b7", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("48ead9dfa21ff55e99cdba8bc3f0c6b7", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("06976700585d6e2552700d066f474edd", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("fe8b1e5f171df274258be3ac51e989e2", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("86495dc7d58c575251828beca5ec29f0", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("86495dc7d58c575251828beca5ec29f0", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("0aeac42a7686a80f48e6e089b2d04cf1", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("0aeac42a7686a80f48e6e089b2d04cf1", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("edb19d17c769801743c5104def562a7a", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("f2ff956ea29ef6c8b7d5697f6d21d2a2", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("84ae99329641bb3304f034915075cce3", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("7b0e12d0e8a2c567b03a8b4f5849a82b", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("e012059379b5615f696845623f6ce277", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("e012059379b5615f696845623f6ce277", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("9461df7550c34feba488349ab31b9e2f", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("be2bb81b2c56286deca814ab0f7a4cda", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("010a453684f97eb232355a1a0b8a6a9b", "c027adc10627e8fc117318197712d2be"),
      ("010a453684f97eb232355a1a0b8a6a9b", "c027adc10627e8fc117318197712d2be") );
    ( ("90d408ce2133f0c2235cc6b999fb3377", "360c6a9483b1c040b9c0abad81d32243"),
      ("90d408ce2133f0c2235cc6b999fb3377", "360c6a9483b1c040b9c0abad81d32243") );
    ( ("e657f986fa04a24107484e1563baacf4", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("e657f986fa04a24107484e1563baacf4", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("16fe0bbf430f577bbb0ce59ae066648e", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("16fe0bbf430f577bbb0ce59ae066648e", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("dc474bac1e06a53bbcc8c5b34f6ced26", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("dc474bac1e06a53bbcc8c5b34f6ced26", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("1ea84edf36064fcb6d9b6b6426601d9c", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("1ea84edf36064fcb6d9b6b6426601d9c", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("4852f9a1703b9579898a19e898d32922", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("4852f9a1703b9579898a19e898d32922", "3e6ea4756c65d7b8a5067861cd124de3") );
    ( ("5438c77fe3976a7e9cfd984f30184150", "3e6ea4756c65d7b8a5067861cd124de3"),
      ("5438c77fe3976a7e9cfd984f30184150", "3e6ea4756c65d7b8a5067861cd124de3") );
  ]

let fold_golden_checks =
  golden_sweep ~what:"planned-fold" (List.combine fold_queries fold_goldens)

let suite =
  List.map QCheck_alcotest.to_alcotest tests
  @ figure_checks @ planner_checks
  @ List.map QCheck_alcotest.to_alcotest planner_merge_checks
  @ execution_context_checks @ golden_checks @ fold_golden_checks
