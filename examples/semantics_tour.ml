(** A guided tour of every Section 4 problem — run under the legacy
    Cypher 9 semantics to exhibit the bug, then under the revised
    semantics to show the fix.

      dune exec examples/semantics_tour.exe
*)

open Cypher_graph
open Cypher_core
open Cypher_paper

let banner title = Fmt.pr "@.━━━ %s ━━━@." title

let show config g src =
  Fmt.pr "@.> %s@." src;
  match Api.run_string ~config g src with
  | Ok o ->
      Fmt.pr "%a@." Cypher_table.Table.pp o.Api.r_table;
      Some o.Api.r_graph
  | Error e ->
      Fmt.pr "ERROR: %s@." (Errors.to_string e);
      None

let marketplace () =
  match Api.run_string ~config:Config.revised Graph.empty Fixtures.figure1_setup with
  | Ok o -> o.Api.r_graph
  | Error e -> failwith (Errors.to_string e)

let () =
  banner "Problem 1 — SET is not simultaneous (Example 1)";
  let g = marketplace () in
  Fmt.pr "The laptop and tablet ids were switched at data entry.@.";
  ignore
    (show Config.cypher9 g
       "MATCH (p1:Product {name: 'laptop'}), (p2:Product {name: 'tablet'})\n\
        SET p1.id = p2.id, p2.id = p1.id\n\
        WITH p1, p2 RETURN p1.id, p2.id");
  Fmt.pr "Legacy: both end as 85 — the swap silently failed.@.";
  ignore
    (show Config.revised g
       "MATCH (p1:Product {name: 'laptop'}), (p2:Product {name: 'tablet'})\n\
        SET p1.id = p2.id, p2.id = p1.id\n\
        RETURN p1.id, p2.id");
  Fmt.pr "Revised: all right-hand sides evaluate against the input graph;\n\
          the ids swap (Section 7).@.";

  banner "Problem 2 — ambiguous SET picks a silent winner (Example 2)";
  Fmt.pr "Two products share id 125 with different names.@.";
  ignore
    (show Config.cypher9 g
       "MATCH (p1:Product {id: 85}), (p2:Product {id: 125})\n\
        SET p1.name = p2.name WITH p1 RETURN p1.name");
  Fmt.pr "Legacy: an arbitrary winner. Revised:@.";
  ignore
    (show Config.revised g
       "MATCH (p1:Product {id: 85}), (p2:Product {id: 125})\n\
        SET p1.name = p2.name RETURN p1.name");
  Fmt.pr "The clause aborts — there is no right answer to pick.@.";

  banner "Problem 3 — manipulating deleted entities (Section 4.2)";
  let g2 = Fixtures.deleted_node_graph in
  ignore (show Config.cypher9 g2 Fixtures.deleted_node_query);
  Fmt.pr
    "Legacy: the statement succeeds and RETURNs an 'empty node'; between\n\
     the two DELETEs the graph held a dangling relationship.@.";
  ignore (show Config.revised g2 Fixtures.deleted_node_query);
  Fmt.pr "Revised: the DELETE aborts — the :ORDERED relationship would dangle.@.";

  banner "Problem 4 — MERGE reads its own writes (Example 3 / Figure 6)";
  Fmt.pr "Driving table:@.%a@." Cypher_table.Table.pp Fixtures.example3_table;
  let run order =
    fst
      (Runner.run_merge_mode
         (Config.with_order order Config.cypher9)
         ~mode:Cypher_ast.Ast.Merge_legacy Fixtures.example3_merge
         (Fixtures.example3_graph, Fixtures.example3_table))
  in
  let fwd = run Config.Forward and rev = run Config.Reverse in
  Fmt.pr "@.Legacy, top-down   (%d rels):@.%a@." (Graph.rel_count fwd) Graph.pp fwd;
  Fmt.pr "@.Legacy, bottom-up  (%d rels):@.%a@." (Graph.rel_count rev) Graph.pp rev;
  Fmt.pr "@.Same unordered table, different graphs — nondeterminism.@.";
  let same =
    fst
      (Runner.run_merge_mode Config.permissive ~mode:Cypher_ast.Ast.Merge_same
         Fixtures.example3_merge
         (Fixtures.example3_graph, Fixtures.example3_table))
  in
  Fmt.pr "@.MERGE SAME (any order):@.%a@." Graph.pp same;
  Fmt.pr "@.The revised semantics matches against the input graph and\n\
          collapses equal creations: one deterministic result (Section 7).@."
