(** Clickstream: the paper's Example 7 / Figure 9.

    A customer browses product pages p1 → p2 → p3 → p1 → p2 and then
    buys p4; the search-and-purchase trail is merged into the graph.
    Collapse and Strong Collapse differ on the repeated p1→p2 hop, and
    Strong Collapse triggers the match-after-merge anomaly the paper
    uses to motivate homomorphism-based matching.

      dune exec examples/clickstream.exe
*)

open Cypher_graph
open Cypher_ast.Ast
open Cypher_core
open Cypher_paper

let banner title = Fmt.pr "@.=== %s ===@." title

let () =
  banner "Products previously looked up in the graph";
  Fmt.pr "%a@." Graph.pp Fixtures.example7_graph;

  banner "The clickstream driving table (one purchase trail)";
  Fmt.pr "%a@." Cypher_table.Table.pp Fixtures.example7_table;

  banner "The merge statement";
  Fmt.pr "%s@." Fixtures.example7_merge;

  let run mode =
    fst
      (Runner.run_merge_mode Config.permissive ~mode Fixtures.example7_merge
         (Fixtures.example7_graph, Fixtures.example7_table))
  in

  banner "Collapse semantics (Figure 9a): both p1->p2 hops survive";
  let collapse = run Merge_collapse in
  Fmt.pr "%a@." Graph.pp collapse;

  banner "Strong Collapse / MERGE SAME (Figure 9b): the hops fuse";
  let same = run Merge_same in
  Fmt.pr "%a@." Graph.pp same;

  banner "Match-after-merge";
  Fmt.pr "%s@.@." Fixtures.example7_match;
  let count g =
    match Api.run_string ~config:Config.revised g Fixtures.example7_match with
    | Ok o -> Cypher_table.Table.row_count o.Api.r_table
    | Error e -> failwith (Errors.to_string e)
  in
  Fmt.pr "rows on the Collapse graph        : %d@." (count collapse);
  Fmt.pr "rows on the Strong Collapse graph : %d@." (count same);
  Fmt.pr
    "@.Under Cypher's relationship-isomorphic matching the merged pattern@.\
     no longer matches its own Strong Collapse output — each relationship@.\
     pattern must bind a distinct relationship, but the two :TO hops from@.\
     p1 to p2 are now a single edge.  With homomorphism-based matching@.\
     (planned for later Cypher versions, Section 6) it would match.@."
