(** Fixtures: every graph, driving table and query the paper uses in its
    worked examples, plus builders for the expected result graphs of
    Figures 6–9.  Shared by the test suite, the experiment harness
    ([bin/experiments.ml]) and the benchmarks. *)

open Cypher_graph
open Cypher_table

let i n = Value.Int n
let s v = Value.String v

(** [build nodes rels] constructs a graph from declarative specs:
    [nodes] is a list of (labels, props) — node k is the k-th entry —
    and [rels] is a list of (src index, type, tgt index). *)
let build nodes rels : Graph.t =
  let g, ids =
    List.fold_left
      (fun (g, ids) (labels, props) ->
        let id, g = Graph.create_node ~labels ~props:(Props.of_list props) g in
        (g, id :: ids))
      (Graph.empty, []) nodes
  in
  let ids = Array.of_list (List.rev ids) in
  List.fold_left
    (fun g (src, r_type, tgt) ->
      let _, g = Graph.create_rel ~src:ids.(src) ~tgt:ids.(tgt) ~r_type g in
      g)
    g rels

(* ------------------------------------------------------------------ *)
(* Figure 1: the online marketplace                                   *)
(* ------------------------------------------------------------------ *)

(** Cypher building the solid-line part of Figure 1. *)
let figure1_setup =
  "CREATE (v1:Vendor {id: 60, name: 'cStore'}),\n\
  \       (p1:Product {id: 125, name: 'laptop'}),\n\
  \       (p2:Product {id: 125, name: 'notebook'}),\n\
  \       (p3:Product {id: 85, name: 'tablet'}),\n\
  \       (u1:User {id: 89, name: 'Bob'}),\n\
  \       (u2:User {id: 99, name: 'Jane'}),\n\
  \       (v1)-[:OFFERS]->(p1), (v1)-[:OFFERS]->(p2),\n\
  \       (u1)-[:ORDERED]->(p1), (u2)-[:ORDERED]->(p2),\n\
  \       (u2)-[:ORDERED]->(p3)"

(** The same graph built directly (for comparing against). *)
let figure1_graph =
  build
    [
      ([ "Vendor" ], [ ("id", i 60); ("name", s "cStore") ]);
      ([ "Product" ], [ ("id", i 125); ("name", s "laptop") ]);
      ([ "Product" ], [ ("id", i 125); ("name", s "notebook") ]);
      ([ "Product" ], [ ("id", i 85); ("name", s "tablet") ]);
      ([ "User" ], [ ("id", i 89); ("name", s "Bob") ]);
      ([ "User" ], [ ("id", i 99); ("name", s "Jane") ]);
    ]
    [
      (0, "OFFERS", 1); (0, "OFFERS", 2); (4, "ORDERED", 1); (5, "ORDERED", 2);
      (5, "ORDERED", 3);
    ]

(** Queries (1)–(5) of Sections 2–3, verbatim. *)
let query1 =
  "MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)\n\
   WHERE p.name = 'laptop'\n\
   RETURN v"

let query2 =
  "MATCH (u:User {id: 89})\n\
   CREATE (u)-[:ORDERED]->(:New_Product {id: 0})"

let query3 =
  "MATCH (p:New_Product {id: 0})\n\
   SET p:Product, p.id = 120, p.name = 'smartphone'\n\
   REMOVE p:New_Product"

let query4 = "MATCH (p:Product {id: 120})\nDETACH DELETE p"

let query5_legacy =
  "MATCH (p:Product)\nMERGE (p)<-[:OFFERS]-(v:Vendor)\nRETURN p, v"

(* ------------------------------------------------------------------ *)
(* Example 1 and 2: SET                                               *)
(* ------------------------------------------------------------------ *)

let example1_swap =
  "MATCH (p1:Product {name: 'laptop'}), (p2:Product {name: 'tablet'})\n\
   SET p1.id = p2.id, p2.id = p1.id"

let example2_ambiguous =
  "MATCH (p1:Product {id: 85}), (p2:Product {id: 125})\n\
   SET p1.name = p2.name"

(* ------------------------------------------------------------------ *)
(* Section 4.2: the deleted-node query                                *)
(* ------------------------------------------------------------------ *)

let deleted_node_query =
  "MATCH (user)-[order:ORDERED]->(product)\n\
   DELETE user\n\
   SET user.id = 999\n\
   DELETE order\n\
   RETURN user"

(** A one-user one-order graph on which the above runs cleanly. *)
let deleted_node_graph =
  build
    [
      ([ "User" ], [ ("id", i 89) ]);
      ([ "Product" ], [ ("id", i 125) ]);
    ]
    [ (0, "ORDERED", 1) ]

(* ------------------------------------------------------------------ *)
(* Example 3 / Figures 6a, 6b                                         *)
(* ------------------------------------------------------------------ *)

(** Nodes carry a name property so result graphs are rigid under
    isomorphism (the paper's figures label them u1, u2, p, v1, v2). *)
let example3_graph =
  build
    [
      ([], [ ("name", s "u1") ]);
      ([], [ ("name", s "u2") ]);
      ([], [ ("name", s "p") ]);
      ([], [ ("name", s "v1") ]);
      ([], [ ("name", s "v2") ]);
    ]
    []

(** The driving table of Example 3 over the graph above; node values
    refer to [example3_graph] by creation order. *)
let example3_table =
  let row user product vendor =
    Record.of_list
      [
        ("user", Value.Node user); ("product", Value.Node product);
        ("vendor", Value.Node vendor);
      ]
  in
  Table.make [ "user"; "product"; "vendor" ]
    [ row 0 2 3; row 1 2 4; row 0 2 4 ]

let example3_merge = "MERGE (user)-[:ORDERED]->(product)<-[:OFFERS]-(vendor)"

let fig6_nodes =
  [
    ([], [ ("name", s "u1") ]);
    ([], [ ("name", s "u2") ]);
    ([], [ ("name", s "p") ]);
    ([], [ ("name", s "v1") ]);
    ([], [ ("name", s "v2") ]);
  ]

(** Figure 6a: all three records created their paths. *)
let figure6a =
  build fig6_nodes
    [
      (0, "ORDERED", 2); (3, "OFFERS", 2);
      (1, "ORDERED", 2); (4, "OFFERS", 2);
      (0, "ORDERED", 2); (4, "OFFERS", 2);
    ]

(** Figure 6b: the third record matched what the first two created. *)
let figure6b =
  build fig6_nodes
    [
      (0, "ORDERED", 2); (3, "OFFERS", 2);
      (1, "ORDERED", 2); (4, "OFFERS", 2);
    ]

(* ------------------------------------------------------------------ *)
(* Example 5 / Figures 7a, 7b, 7c                                     *)
(* ------------------------------------------------------------------ *)

let example5_merge = "MERGE (:User {id: cid})-[:ORDERED]->(:Product {id: pid})"

let example5_table =
  let row cid pid date =
    Record.of_list [ ("cid", cid); ("pid", pid); ("date", date) ]
  in
  Table.make [ "cid"; "pid"; "date" ]
    [
      row (i 98) (i 125) (s "2018-06-23");
      row (i 98) (i 125) (s "2018-07-06");
      row (i 98) Value.Null Value.Null;
      row (i 98) Value.Null Value.Null;
      row (i 99) (i 125) (s "2018-03-11");
      row (i 99) Value.Null Value.Null;
    ]

let user id = ([ "User" ], [ ("id", i id) ])
let product id = ([ "Product" ], [ ("id", i id) ])
let product_nul = ([ "Product" ], [])

(** Figure 7a (Atomic / MERGE ALL): one pair per record — 12 nodes. *)
let figure7a =
  build
    [
      user 98; product 125;
      user 98; product 125;
      user 98; product_nul;
      user 98; product_nul;
      user 99; product 125;
      user 99; product_nul;
    ]
    [
      (0, "ORDERED", 1); (2, "ORDERED", 3); (4, "ORDERED", 5);
      (6, "ORDERED", 7); (8, "ORDERED", 9); (10, "ORDERED", 11);
    ]

(** Figure 7b (Grouping): one pair per distinct cid/pid — 8 nodes. *)
let figure7b =
  build
    [ user 98; product 125; user 98; product_nul; user 99; product 125;
      user 99; product_nul ]
    [ (0, "ORDERED", 1); (2, "ORDERED", 3); (4, "ORDERED", 5); (6, "ORDERED", 7) ]

(** Figure 7c (all collapse variants): 98, 99, 125 and the null product. *)
let figure7c =
  build
    [ user 98; user 99; product 125; product_nul ]
    [
      (0, "ORDERED", 2); (0, "ORDERED", 3); (1, "ORDERED", 2); (1, "ORDERED", 3);
    ]

(* ------------------------------------------------------------------ *)
(* Example 6 / Figures 8a, 8b                                         *)
(* ------------------------------------------------------------------ *)

let example6_merge =
  "MERGE (:User {id: bid})-[:ORDERED]->(:Product {id: pid})\n\
   <-[:OFFERS]-(:User {id: sid})"

let example6_table =
  let row bid pid sid =
    Record.of_list [ ("bid", i bid); ("pid", i pid); ("sid", i sid) ]
  in
  Table.make [ "bid"; "pid"; "sid" ] [ row 98 125 97; row 99 85 98 ]

(** Figure 8a (Atomic / Grouping / Weak Collapse): two :User{id:98}
    nodes, one per pattern position. *)
let figure8a =
  build
    [ user 98; product 125; user 97; user 99; product 85; user 98 ]
    [
      (0, "ORDERED", 1); (2, "OFFERS", 1); (3, "ORDERED", 4); (5, "OFFERS", 4);
    ]

(** Figure 8b (Collapse / Strong Collapse): the 98s merge. *)
let figure8b =
  build
    [ user 98; product 125; user 97; user 99; product 85 ]
    [
      (0, "ORDERED", 1); (2, "OFFERS", 1); (3, "ORDERED", 4); (0, "OFFERS", 4);
    ]

(* ------------------------------------------------------------------ *)
(* Example 7 / Figures 9a, 9b                                         *)
(* ------------------------------------------------------------------ *)

(** Four product pages previously looked up in the graph. *)
let example7_graph =
  build
    [
      ([ "Product" ], [ ("name", s "p1") ]);
      ([ "Product" ], [ ("name", s "p2") ]);
      ([ "Product" ], [ ("name", s "p3") ]);
      ([ "Product" ], [ ("name", s "p4") ]);
    ]
    []

let example7_table =
  Table.make
    [ "a"; "b"; "c"; "d"; "e"; "tgt" ]
    [
      Record.of_list
        [
          ("a", Value.Node 0); ("b", Value.Node 1); ("c", Value.Node 2);
          ("d", Value.Node 0); ("e", Value.Node 1); ("tgt", Value.Node 3);
        ];
    ]

let example7_merge =
  "MERGE (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt)"

let example7_match =
  "MATCH (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt)\n\
   RETURN a"

let fig9_nodes =
  [
    ([ "Product" ], [ ("name", s "p1") ]);
    ([ "Product" ], [ ("name", s "p2") ]);
    ([ "Product" ], [ ("name", s "p3") ]);
    ([ "Product" ], [ ("name", s "p4") ]);
  ]

(** Figure 9a: both p1→p2 :TO edges survive (5 relationships). *)
let figure9a =
  build fig9_nodes
    [
      (0, "TO", 1); (1, "TO", 2); (2, "TO", 0); (0, "TO", 1); (1, "BOUGHT", 3);
    ]

(** Figure 9b (Strong Collapse): the two p1→p2 edges collapse. *)
let figure9b =
  build fig9_nodes
    [ (0, "TO", 1); (1, "TO", 2); (2, "TO", 0); (1, "BOUGHT", 3) ]

(* ------------------------------------------------------------------ *)
(* Synthetic workload generators (benchmarks)                         *)
(* ------------------------------------------------------------------ *)

(** [marketplace_graph ~vendors ~products ~users ~orders_per_user]
    generates a larger Figure-1-style graph deterministically. *)
let marketplace_graph ~vendors ~products ~users ~orders_per_user : Graph.t =
  let nodes =
    List.init vendors (fun k ->
        ([ "Vendor" ], [ ("id", i k); ("name", s (Printf.sprintf "vendor%d" k)) ]))
    @ List.init products (fun k ->
          ( [ "Product" ],
            [ ("id", i (1000 + k)); ("name", s (Printf.sprintf "product%d" k)) ] ))
    @ List.init users (fun k ->
          ([ "User" ], [ ("id", i (100000 + k)); ("name", s (Printf.sprintf "user%d" k)) ]))
  in
  let product_idx k = vendors + (k mod products) in
  let rels =
    List.concat_map
      (fun k -> [ (k mod vendors, "OFFERS", product_idx k) ])
      (List.init products (fun k -> k))
    @ List.concat_map
        (fun u ->
          List.init orders_per_user (fun o ->
              ( vendors + products + u,
                "ORDERED",
                product_idx ((u * orders_per_user) + o) )))
        (List.init users (fun k -> k))
  in
  build nodes rels

(** [orders_table n] generates an Example-5-style driving table with
    duplicates and nulls sprinkled deterministically. *)
let orders_table n : Table.t =
  let row k =
    let cid = i (90 + (k mod 7)) in
    let pid = if k mod 5 = 3 then Value.Null else i (100 + (k mod 11)) in
    let date = if k mod 5 = 3 then Value.Null else s (Printf.sprintf "2018-%02d-%02d" (1 + (k mod 12)) (1 + (k mod 28))) in
    Record.of_list [ ("cid", cid); ("pid", pid); ("date", date) ]
  in
  Table.make [ "cid"; "pid"; "date" ] (List.init n row)
