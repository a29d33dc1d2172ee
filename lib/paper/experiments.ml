(** The paper's reproducible artefacts, E1–E10 (see DESIGN.md §4).

    Each experiment runs the paper's exact workload and checks the
    outcome against the figure or described behaviour, mechanically
    (graph isomorphism, error matching, or value comparison).  The
    reports drive [bin/experiments.ml] and EXPERIMENTS.md; the test
    suite asserts that every experiment passes. *)

open Cypher_graph
open Cypher_table
open Cypher_core
open Cypher_ast.Ast

type report = {
  id : string;
  title : string;
  paper_claim : string;
  observed : string;
  passed : bool;
}

let report id title paper_claim (passed, observed) =
  { id; title; paper_claim; observed; passed }

let graph_summary g =
  Printf.sprintf "%d nodes, %d relationships" (Graph.node_count g)
    (Graph.rel_count g)

let check_iso ~expected g =
  if Iso.isomorphic expected g then (true, graph_summary g ^ " (isomorphic to figure)")
  else
    ( false,
      Printf.sprintf "%s, NOT isomorphic to figure:\n%s" (graph_summary g)
        (Graph.to_string g) )

let run_ok config g src =
  match Api.run_string ~config g src with
  | Ok o -> o
  | Error e -> raise (Errors.Error e)

(* ------------------------------------------------------------------ *)
(* E1: Queries (1)-(4) on the Figure 1 marketplace                    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let g0 = (run_ok Config.revised Graph.empty Fixtures.figure1_setup).Api.r_graph in
  let built_ok = Iso.isomorphic g0 Fixtures.figure1_graph in
  (* Query (1): exactly one vendor, cStore *)
  let q1 = run_ok Config.revised g0 Fixtures.query1 in
  let q1_ok =
    Table.row_count q1.Api.r_table = 1
    &&
    match Record.find (List.hd (Table.rows q1.Api.r_table)) "v" with
    | Value.Node id ->
        Value.equal_strict
          (Props.get (Graph.node_props_of g0 id) "name")
          (Value.String "cStore")
    | _ -> false
  in
  (* Queries (2) and (3): insert p4 and evolve it into a smartphone *)
  let g2 = (run_ok Config.revised g0 Fixtures.query2).Api.r_graph in
  let q2_ok =
    Graph.node_count g2 = 7
    && Graph.rel_count g2 = 6
    && Graph.fold_nodes
         (fun n acc -> acc || Cypher_util.Maps.Sset.mem "New_Product" n.Graph.labels)
         g2 false
  in
  let g3 = (run_ok Config.revised g2 Fixtures.query3).Api.r_graph in
  let smartphone =
    Graph.fold_nodes
      (fun n acc ->
        if
          Value.equal_strict (Props.get n.Graph.n_props "name")
            (Value.String "smartphone")
        then Some n
        else acc)
      g3 None
  in
  let q3_ok =
    match smartphone with
    | Some n ->
        Cypher_util.Maps.Sset.elements n.Graph.labels = [ "Product" ]
        && Value.equal_strict (Props.get n.Graph.n_props "id") (Value.Int 120)
    | None -> false
  in
  (* a plain DELETE of the ordered product must fail... *)
  let strict_delete_fails =
    match Api.run_string ~config:Config.revised g3 "MATCH (p:Product {id: 120}) DELETE p" with
    | Error (Errors.Delete_dangling _) -> true
    | _ -> false
  in
  (* ...while Query (4) (DETACH DELETE) restores the original graph *)
  let g4 = (run_ok Config.revised g3 Fixtures.query4).Api.r_graph in
  let q4_ok = Iso.isomorphic g4 Fixtures.figure1_graph in
  let passed = built_ok && q1_ok && q2_ok && q3_ok && strict_delete_fails && q4_ok in
  report "E1" "Queries (1)-(4) on the Figure 1 marketplace"
    "Query 1 returns vendor cStore once; CREATE/SET/REMOVE evolve p4; plain \
     DELETE of an ordered product fails; DETACH DELETE restores Figure 1"
    ( passed,
      Printf.sprintf
        "figure1 built=%b q1=%b create=%b set/remove=%b strict-delete-errors=%b \
         detach-delete=%b"
        built_ok q1_ok q2_ok q3_ok strict_delete_fails q4_ok )

(* ------------------------------------------------------------------ *)
(* E2: Query (5) — MERGE creates v2 for the tablet                    *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let g0 = (run_ok Config.revised Graph.empty Fixtures.figure1_setup).Api.r_graph in
  (* legacy MERGE under Cypher 9 *)
  let legacy = run_ok Config.cypher9 g0 Fixtures.query5_legacy in
  (* revised MERGE SAME under the new dialect *)
  let revised =
    run_ok Config.revised g0
      "MATCH (p:Product) MERGE SAME (p)<-[:OFFERS]-(v:Vendor) RETURN p, v"
  in
  let expected =
    (* Figure 1 + dashed additions: new vendor v2 offering the tablet *)
    let v2, g = Graph.create_node ~labels:[ "Vendor" ] g0 in
    let tablet =
      Graph.fold_nodes
        (fun n acc ->
          if Value.equal_strict (Props.get n.Graph.n_props "name") (Value.String "tablet")
          then Some n.Graph.n_id
          else acc)
        g None
    in
    let _, g =
      Graph.create_rel ~src:v2 ~tgt:(Option.get tablet) ~r_type:"OFFERS" g
    in
    g
  in
  let ok_l, obs_l = check_iso ~expected legacy.Api.r_graph in
  let ok_r, obs_r = check_iso ~expected revised.Api.r_graph in
  let rows_ok =
    Table.row_count legacy.Api.r_table = 3 && Table.row_count revised.Api.r_table = 3
  in
  report "E2" "Query (5): MERGE pairs every product with a vendor"
    "p1, p2 match vendor v1; p3 gets a fresh vendor v2 with an :OFFERS \
     relationship (dashed part of Figure 1); three result rows"
    ( ok_l && ok_r && rows_ok,
      Printf.sprintf "legacy: %s; revised: %s; both return 3 rows=%b" obs_l
        obs_r rows_ok )

(* ------------------------------------------------------------------ *)
(* E3: Example 1 — the SET swap                                       *)
(* ------------------------------------------------------------------ *)

let product_ids g =
  Graph.fold_nodes
    (fun n acc ->
      match Props.get n.Graph.n_props "name" with
      | Value.String name -> (name, Props.get n.Graph.n_props "id") :: acc
      | _ -> acc)
    g []

let e3 () =
  let g0 = (run_ok Config.revised Graph.empty Fixtures.figure1_setup).Api.r_graph in
  let atomic = (run_ok Config.revised g0 Fixtures.example1_swap).Api.r_graph in
  let legacy = (run_ok Config.cypher9 g0 Fixtures.example1_swap).Api.r_graph in
  let id_of g name = List.assoc name (product_ids g) in
  let atomic_swapped =
    Value.equal_strict (id_of atomic "laptop") (Value.Int 85)
    && Value.equal_strict (id_of atomic "tablet") (Value.Int 125)
  in
  let legacy_stuck =
    Value.equal_strict (id_of legacy "laptop") (Value.Int 85)
    && Value.equal_strict (id_of legacy "tablet") (Value.Int 85)
  in
  report "E3" "Example 1: SET id swap"
    "Legacy SET behaves like two sequential SETs (both products end with \
     id 85); atomic SET swaps the ids as an experienced SQL programmer \
     expects"
    ( atomic_swapped && legacy_stuck,
      Printf.sprintf "atomic: laptop=%s tablet=%s; legacy: laptop=%s tablet=%s"
        (Value.to_string (id_of atomic "laptop"))
        (Value.to_string (id_of atomic "tablet"))
        (Value.to_string (id_of legacy "laptop"))
        (Value.to_string (id_of legacy "tablet")) )

(* ------------------------------------------------------------------ *)
(* E4: Example 2 — ambiguous SET must abort                           *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let g0 = (run_ok Config.revised Graph.empty Fixtures.figure1_setup).Api.r_graph in
  let atomic = Api.run_string ~config:Config.revised g0 Fixtures.example2_ambiguous in
  let legacy = Api.run_string ~config:Config.cypher9 g0 Fixtures.example2_ambiguous in
  let atomic_errors =
    match atomic with Error (Errors.Set_conflict _) -> true | _ -> false
  in
  let legacy_silent = match legacy with Ok _ -> true | Error _ -> false in
  report "E4" "Example 2: conflicting SET on dirty data"
    "Two products share id 125 with different names; the revised SET \
     aborts with an error, while legacy SET silently picks an \
     order-dependent winner"
    ( atomic_errors && legacy_silent,
      Printf.sprintf "atomic errors=%b (%s); legacy goes through=%b"
        atomic_errors
        (match atomic with Error e -> Errors.to_string e | Ok _ -> "no error")
        legacy_silent )

(* ------------------------------------------------------------------ *)
(* E5: Section 4.2 — manipulating deleted entities                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let g0 = Fixtures.deleted_node_graph in
  let legacy = Api.run_string ~config:Config.cypher9 g0 Fixtures.deleted_node_query in
  let legacy_ok, legacy_obs =
    match legacy with
    | Ok o -> (
        (* the query "goes through without an error and returns an empty
           node without any labels or properties" *)
        match Table.rows o.Api.r_table with
        | [ row ] -> (
            match Record.find row "user" with
            | Value.Node id ->
                let empty_node =
                  Graph.labels_of o.Api.r_graph id = []
                  && Props.is_empty (Graph.node_props_of o.Api.r_graph id)
                in
                ( empty_node && Graph.node_count o.Api.r_graph = 1,
                  Printf.sprintf
                    "legacy returns node %d, labels=[] props={} -> empty node; \
                     graph keeps only the product"
                    id )
            | v -> (false, "legacy returned " ^ Value.to_string v))
        | _ -> (false, "legacy returned wrong number of rows"))
    | Error e -> (false, "legacy errored: " ^ Errors.to_string e)
  in
  let revised = Api.run_string ~config:Config.revised g0 Fixtures.deleted_node_query in
  let revised_ok, revised_obs =
    match revised with
    | Error (Errors.Delete_dangling _) ->
        (true, "revised DELETE aborts: dangling relationship")
    | Error e -> (false, "revised errored differently: " ^ Errors.to_string e)
    | Ok _ -> (false, "revised went through (should have aborted)")
  in
  report "E5" "Section 4.2: DELETE then SET on the deleted node"
    "Legacy: the statement succeeds, traverses an illegal graph state and \
     returns an 'empty node'; revised: the first DELETE aborts because the \
     :ORDERED relationship would dangle"
    (legacy_ok && revised_ok, legacy_obs ^ "; " ^ revised_obs)

(* ------------------------------------------------------------------ *)
(* E6: Example 3 / Figure 6 — legacy MERGE is order-dependent         *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let run order =
    fst
      (Runner.run_merge_mode
         (Config.with_order order Config.cypher9)
         ~mode:Merge_legacy Fixtures.example3_merge
         (Fixtures.example3_graph, Fixtures.example3_table))
  in
  let top_down = run Config.Forward in
  let bottom_up = run Config.Reverse in
  let ok_b, obs_b = check_iso ~expected:Fixtures.figure6b top_down in
  let ok_a, obs_a = check_iso ~expected:Fixtures.figure6a bottom_up in
  let differ = not (Iso.isomorphic top_down bottom_up) in
  report "E6" "Example 3: legacy MERGE reads its own writes"
    "Processing the table top-down yields Figure 6b (4 relationships: the \
     third record matches); bottom-up yields Figure 6a (6 relationships); \
     the two results differ — nondeterminism"
    ( ok_a && ok_b && differ,
      Printf.sprintf "top-down: %s; bottom-up: %s; results differ=%b" obs_b
        obs_a differ )

(* ------------------------------------------------------------------ *)
(* E7: Example 4 — every proposed semantics is order-independent      *)
(* ------------------------------------------------------------------ *)

let proposal_modes =
  [
    ("ALL", Merge_all);
    ("GROUPING", Merge_grouping);
    ("WEAK", Merge_weak_collapse);
    ("COLLAPSE", Merge_collapse);
    ("SAME", Merge_same);
  ]

let e7 () =
  let results =
    List.map
      (fun (name, mode) ->
        let run order =
          fst
            (Runner.run_merge_mode
               (Config.with_order order Config.permissive)
               ~mode Fixtures.example3_merge
               (Fixtures.example3_graph, Fixtures.example3_table))
        in
        let base = run Config.Forward in
        let stable =
          List.for_all
            (fun order -> Iso.isomorphic base (run order))
            Runner.probe_orders
        in
        let expected =
          match mode with
          | Merge_all | Merge_grouping -> Fixtures.figure6a
          | _ -> Fixtures.figure6b
        in
        let shape_ok = Iso.isomorphic expected base in
        (name, stable, shape_ok))
      proposal_modes
  in
  let passed = List.for_all (fun (_, s, k) -> s && k) results in
  report "E7" "Example 4: determinism of the proposed MERGE semantics"
    "All five proposals are invariant under driving-table reordering; \
     Atomic and Grouping yield Figure 6a, the collapse variants yield the \
     minimal Figure 6b"
    ( passed,
      String.concat "; "
        (List.map
           (fun (name, stable, shape) ->
             Printf.sprintf "%s: order-independent=%b figure=%b" name stable
               shape)
           results) )

(* ------------------------------------------------------------------ *)
(* E8: Example 5 / Figure 7 — duplicates and nulls                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let run mode =
    fst
      (Runner.run_merge_mode Config.permissive ~mode Fixtures.example5_merge
         (Graph.empty, Fixtures.example5_table))
  in
  let checks =
    [
      ("ALL", Merge_all, Fixtures.figure7a);
      ("GROUPING", Merge_grouping, Fixtures.figure7b);
      ("WEAK", Merge_weak_collapse, Fixtures.figure7c);
      ("COLLAPSE", Merge_collapse, Fixtures.figure7c);
      ("SAME", Merge_same, Fixtures.figure7c);
    ]
  in
  let results =
    List.map
      (fun (name, mode, expected) ->
        let ok, obs = check_iso ~expected (run mode) in
        (name, ok, obs))
      checks
  in
  report "E8" "Example 5: MERGE variants on the cid/pid table with nulls"
    "Atomic creates 12 nodes (Figure 7a); Grouping 8 (Figure 7b); all \
     collapse variants yield the 4-node graph of Figure 7c with a single \
     null-id product"
    ( List.for_all (fun (_, ok, _) -> ok) results,
      String.concat "; "
        (List.map (fun (name, _, obs) -> name ^ ": " ^ obs) results) )

(* ------------------------------------------------------------------ *)
(* E9: Example 6 / Figure 8 — cross-position node collapse            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let run mode =
    fst
      (Runner.run_merge_mode Config.permissive ~mode Fixtures.example6_merge
         (Graph.empty, Fixtures.example6_table))
  in
  let checks =
    [
      ("ALL", Merge_all, Fixtures.figure8a);
      ("GROUPING", Merge_grouping, Fixtures.figure8a);
      ("WEAK", Merge_weak_collapse, Fixtures.figure8a);
      ("COLLAPSE", Merge_collapse, Fixtures.figure8b);
      ("SAME", Merge_same, Fixtures.figure8b);
    ]
  in
  let results =
    List.map
      (fun (name, mode, expected) ->
        let ok, obs = check_iso ~expected (run mode) in
        (name, ok, obs))
      checks
  in
  report "E9" "Example 6: user 98 buys and sells"
    "Weak Collapse keeps two :User{id:98} nodes (Figure 8a) because they \
     sit at different pattern positions; Collapse and Strong Collapse \
     combine them (Figure 8b)"
    ( List.for_all (fun (_, ok, _) -> ok) results,
      String.concat "; "
        (List.map (fun (name, _, obs) -> name ^ ": " ^ obs) results) )

(* ------------------------------------------------------------------ *)
(* E10: Example 7 / Figure 9 — relationship collapse and the          *)
(*      match-after-merge anomaly                                     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let run mode =
    fst
      (Runner.run_merge_mode Config.permissive ~mode Fixtures.example7_merge
         (Fixtures.example7_graph, Fixtures.example7_table))
  in
  let checks =
    [
      ("ALL", Merge_all, Fixtures.figure9a);
      ("GROUPING", Merge_grouping, Fixtures.figure9a);
      ("WEAK", Merge_weak_collapse, Fixtures.figure9a);
      ("COLLAPSE", Merge_collapse, Fixtures.figure9a);
      ("SAME", Merge_same, Fixtures.figure9b);
    ]
  in
  let results =
    List.map
      (fun (name, mode, expected) ->
        let ok, obs = check_iso ~expected (run mode) in
        (name, ok, obs))
      checks
  in
  (* after Strong Collapse, re-matching the merged pattern finds nothing
     under Cypher's single-edge-traversal semantics *)
  let strong = run Merge_same in
  let rematch =
    match Api.run_string ~config:Config.revised strong Fixtures.example7_match with
    | Ok o -> Table.row_count o.Api.r_table
    | Error _ -> -1
  in
  let weak = run Merge_collapse in
  let rematch_weak =
    match Api.run_string ~config:Config.revised weak Fixtures.example7_match with
    | Ok o -> Table.row_count o.Api.r_table
    | Error _ -> -1
  in
  let figures_ok = List.for_all (fun (_, ok, _) -> ok) results in
  report "E10" "Example 7: clickstream MERGE and match-after-merge"
    "Only Strong Collapse merges the two p1→p2 :TO edges (Figure 9b); \
     re-matching the merged pattern then returns no matches under \
     relationship-isomorphic semantics, while Collapse's graph (Figure 9a) \
     still matches"
    ( figures_ok && rematch = 0 && rematch_weak > 0,
      Printf.sprintf "%s; re-match rows: strong=%d collapse=%d"
        (String.concat "; " (List.map (fun (name, _, obs) -> name ^ ": " ^ obs) results))
        rematch rematch_weak )

(* ------------------------------------------------------------------ *)
(* E11: the paper's planned extension — homomorphism-based matching    *)
(* ------------------------------------------------------------------ *)

(** Section 6 (after Example 7): "if instead of the current Cypher
    matching semantics one would use matching based on graph
    homomorphisms, then for each of the above versions of merge, first
    merging a pattern and then matching it will result in a positive
    match.  [...] For them, Strong Collapse will be a very natural
    choice." *)
let e11 () =
  let homo = Config.with_match_mode Config.Homomorphic Config.permissive in
  let merged mode =
    fst
      (Runner.run_merge_mode Config.permissive ~mode Fixtures.example7_merge
         (Fixtures.example7_graph, Fixtures.example7_table))
  in
  let rematch config g =
    match Api.run_string ~config g Fixtures.example7_match with
    | Ok o -> Table.row_count o.Api.r_table
    | Error _ -> -1
  in
  let modes =
    [
      ("ALL", Merge_all); ("GROUPING", Merge_grouping);
      ("WEAK", Merge_weak_collapse); ("COLLAPSE", Merge_collapse);
      ("SAME", Merge_same);
    ]
  in
  let results =
    List.map
      (fun (name, mode) ->
        let g = merged mode in
        (name, rematch Config.permissive g, rematch homo g))
      modes
  in
  (* under isomorphic matching only SAME fails to re-match; under
     homomorphic matching every version re-matches positively *)
  let passed =
    List.for_all
      (fun (name, iso, homo_rows) ->
        homo_rows > 0 && if name = "SAME" then iso = 0 else iso > 0)
      results
  in
  report "E11"
    "Section 6 extension: homomorphism-based matching after MERGE"
    "Under homomorphism-based matching, merge-then-match is a positive \
     match for every version of MERGE — making Strong Collapse 'a very \
     natural choice' for that regime"
    ( passed,
      String.concat "; "
        (List.map
           (fun (name, iso, homo_rows) ->
             Printf.sprintf "%s: iso-rematch=%d homo-rematch=%d" name iso
               homo_rows)
           results) )

let all () =
  [ e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 (); e10 ();
    e11 () ]

let pp_report ppf r =
  Fmt.pf ppf "[%s] %s — %s@.  paper : %s@.  found : %s@."
    (if r.passed then "PASS" else "FAIL")
    r.id r.title r.paper_claim r.observed
