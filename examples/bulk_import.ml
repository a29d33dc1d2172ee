(** Bulk import: the workload that motivates MERGE (Sections 5–6).

    "MERGE is often used to populate a graph based on a table that has
    been produced by importing from a relational database or a CSV
    file."  This example loads a CSV of orders into a driving table and
    populates an empty graph with every MERGE semantics, showing why the
    revised MERGE SAME gives the import users actually expect — and how
    legacy MERGE silently depends on row order.

      dune exec examples/bulk_import.exe [orders.csv]
*)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
open Cypher_core
open Cypher_paper

let fallback_csv =
  "cid,pid,date\n98,125,2018-06-23\n98,125,2018-07-06\n98,,\n98,,\n\
   99,125,2018-03-11\n99,,\n"

let load_table () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else "examples/data/orders.csv"
  in
  if Sys.file_exists path then begin
    Fmt.pr "Loading %s@." path;
    Cypher_csv.Csv.table_of_file path
  end
  else begin
    Fmt.pr "No %s found; using the paper's Example 5 table@." path;
    Cypher_csv.Csv.table_of_string fallback_csv
  end

let merge_query = "MERGE (:User {id: cid})-[:ORDERED]->(:Product {id: pid})"

let import mode table =
  fst (Runner.run_merge_mode Config.permissive ~mode merge_query (Graph.empty, table))

let summarize name g =
  Fmt.pr "  %-10s -> %3d nodes, %3d relationships@." name (Graph.node_count g)
    (Graph.rel_count g)

let () =
  let table = load_table () in
  Fmt.pr "Driving table (%d rows):@.%a@.@." (Table.row_count table) Table.pp table;

  Fmt.pr "Importing the same table under every MERGE semantics:@.";
  List.iter
    (fun (name, mode) -> summarize name (import mode table))
    [
      ("ALL", Merge_all);
      ("GROUPING", Merge_grouping);
      ("WEAK", Merge_weak_collapse);
      ("COLLAPSE", Merge_collapse);
      ("SAME", Merge_same);
    ];

  (* legacy MERGE depends on row order *)
  let legacy order =
    fst
      (Runner.run_merge_mode
         (Config.with_order order Config.cypher9)
         ~mode:Merge_legacy merge_query (Graph.empty, table))
  in
  let forward = legacy Config.Forward and reverse = legacy Config.Reverse in
  Fmt.pr "@.Legacy MERGE, forward vs reverse row order:@.";
  summarize "forward" forward;
  summarize "reverse" reverse;
  if Iso.isomorphic forward reverse then
    Fmt.pr "  (this table happens to be order-insensitive)@."
  else Fmt.pr "  NONDETERMINISM: the two orders give different graphs!@.";

  (* The recommended two-phase import (Section 5: "it is a common
     practice to input nodes first and relationships later"): merge the
     nodes, then MATCH them and merge only the relationship between the
     bound endpoints.  Rows with null ids drop out at the MATCH, exactly
     as a real import wants. *)
  Fmt.pr "@.Two-phase import with MERGE SAME (nodes first, then edges):@.";
  let users = Table.project [ "cid" ] table in
  let products = Table.project [ "pid" ] table in
  let g = Graph.empty in
  let g, _ = Runner.run_merge_mode Config.revised ~mode:Merge_same
      "MERGE (:User {id: cid})" (g, users) in
  let g, _ = Runner.run_merge_mode Config.revised ~mode:Merge_same
      "MERGE (:Product {id: pid})" (g, products) in
  let g, matched = Runner.run_clause Config.revised
      "MATCH (u:User {id: cid}), (p:Product {id: pid})" (g, table) in
  let g, _ = Runner.run_merge_mode Config.revised ~mode:Merge_same
      "MERGE (u)-[:ORDERED]->(p)" (g, matched) in
  summarize "two-phase" g;
  Fmt.pr "@.Resulting graph:@.%a@." Graph.pp g;

  (* and now query it through the normal API *)
  match
    Api.run_string ~config:Config.revised g
      "MATCH (u:User)-[:ORDERED]->(p:Product)\n\
       RETURN u.id AS user, count(*) AS orders ORDER BY user"
  with
  | Ok o -> Fmt.pr "@.Orders per user:@.%a@." Table.pp o.Api.r_table
  | Error e -> Fmt.epr "error: %s@." (Errors.to_string e)
