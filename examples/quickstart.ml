(** Quickstart: the online-marketplace of the paper's Section 2–3.

    Builds the Figure 1 property graph, then runs the paper's Queries
    (1)–(5) through the public API, printing each result table and the
    evolving graph.  Run with:

      dune exec examples/quickstart.exe
*)

open Cypher_graph
open Cypher_core

let banner title = Fmt.pr "@.=== %s ===@." title

let show_result { Api.r_graph; r_table; _ } =
  Fmt.pr "%a@." Cypher_table.Table.pp r_table;
  r_graph

let run config g (title, src) =
  banner title;
  Fmt.pr "%s@.@." src;
  match Api.run_string ~config g src with
  | Ok r -> show_result r
  | Error e ->
      Fmt.pr "error: %s@." (Errors.to_string e);
      g

let () =
  banner "Building the Figure 1 marketplace graph";
  let setup =
    "CREATE (v1:Vendor {id: 60, name: 'cStore'}),\n\
    \       (p1:Product {id: 125, name: 'laptop'}),\n\
    \       (p2:Product {id: 125, name: 'notebook'}),\n\
    \       (p3:Product {id: 85, name: 'tablet'}),\n\
    \       (u1:User {id: 89, name: 'Bob'}),\n\
    \       (u2:User {id: 99, name: 'Jane'}),\n\
    \       (v1)-[:OFFERS]->(p1), (v1)-[:OFFERS]->(p2),\n\
    \       (u1)-[:ORDERED]->(p1), (u2)-[:ORDERED]->(p2),\n\
    \       (u2)-[:ORDERED]->(p3)"
  in
  let g =
    match Api.run_string ~config:Config.revised Graph.empty setup with
    | Ok o -> o.Api.r_graph
    | Error e -> failwith (Errors.to_string e)
  in
  Fmt.pr "%a@." Graph.pp g;

  let g =
    List.fold_left (run Config.revised) g
      [
        ( "Query (1): vendors offering a laptop and another product",
          "MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)\n\
           WHERE p.name = 'laptop'\n\
           RETURN v.name" );
        ( "Query (2): Bob orders a new product",
          "MATCH (u:User {id: 89})\n\
           CREATE (u)-[:ORDERED]->(:New_Product {id: 0})\n\
           RETURN count(*) AS created" );
        ( "Query (3): the new product becomes a smartphone",
          "MATCH (p:New_Product {id: 0})\n\
           SET p:Product, p.id = 120, p.name = 'smartphone'\n\
           REMOVE p:New_Product\n\
           RETURN p.id, p.name" );
        ( "A plain DELETE fails while the product is still ordered",
          "MATCH (p:Product {id: 120}) DELETE p" );
        ( "Query (4): DETACH DELETE removes it together with its order",
          "MATCH (p:Product {id: 120}) DETACH DELETE p RETURN count(*) AS gone" );
        ( "Query (5): every product gets a vendor (MERGE SAME)",
          "MATCH (p:Product)\n\
           MERGE SAME (p)<-[:OFFERS]-(v:Vendor)\n\
           RETURN p.name, id(v) AS vendor_id" );
      ]
  in

  banner "Aggregation: orders per user";
  let g =
    run Config.revised g
      ( "orders per user",
        "MATCH (u:User)-[:ORDERED]->(p)\n\
         RETURN u.name AS user, count(*) AS orders, collect(p.name) AS items\n\
         ORDER BY orders DESC" )
  in

  banner "Final graph";
  Fmt.pr "%a@." Graph.pp g
