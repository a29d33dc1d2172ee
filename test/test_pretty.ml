(** Pretty-printer: parse ∘ print = identity, checked on hand-written
    queries and on randomly generated ASTs. *)

open Cypher_ast.Ast
module Pretty = Cypher_ast.Pretty
module Parser = Cypher_parser.Parser
open Test_util

let roundtrip_query src =
  match Parser.parse_string src with
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e)
  | Ok q -> (
      let printed = Pretty.query_to_string q in
      match Parser.parse_string printed with
      | Error e ->
          Alcotest.failf "reparse of %S failed: %s" printed
            (Parser.error_to_string e)
      | Ok q' ->
          if q <> q' then
            Alcotest.failf "round-trip changed the AST:\n%s\n~>\n%s" src printed)

let hand_written =
  [
    "MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product) WHERE \
     p.name = 'laptop' RETURN v";
    "MATCH (u:User {id: 89}) CREATE (u)-[:ORDERED]->(:New_Product {id: 0})";
    "MATCH (p:New_Product {id: 0}) SET p:Product, p.id = 120, p.name = \
     'smartphone' REMOVE p:New_Product";
    "MATCH (p:Product {id: 120}) DETACH DELETE p";
    "MATCH (p:Product) MERGE (p)<-[:OFFERS]-(v:Vendor) RETURN p, v";
    "MERGE ALL (:User {id: cid})-[:ORDERED]->(:Product {id: pid})";
    "MERGE SAME (:User {id: bid})-[:ORDERED]->(:Product {id: \
     pid})<-[:OFFERS]-(:User {id: sid})";
    "MATCH (n) RETURN DISTINCT n.x AS x ORDER BY x DESC SKIP 1 LIMIT 2";
    "UNWIND [1, 2, 3] AS x WITH x WHERE x > 1 RETURN count(*) AS n";
    "MATCH (a)-[r:T*1..3]->(b) RETURN r";
    "FOREACH (x IN [1, 2] | SET n.a = x)";
    "RETURN 1 AS x UNION ALL RETURN 2 AS x";
    "MATCH (n) RETURN CASE n.x WHEN 1 THEN 'one' ELSE 'many' END AS c";
    "MATCH (n) WHERE n.name STARTS WITH 'a' AND NOT n.x IS NULL RETURN \
     [y IN n.list WHERE y > 0 | y * 2] AS ys";
    "MERGE (n:X) ON CREATE SET n.c = 1 ON MATCH SET n.m = 2";
    "MATCH p = (a)-[:T]->(b) RETURN nodes(p), relationships(p)";
    (* string literals with quotes and control characters must survive
       the print → re-parse round trip *)
    "RETURN 'it\\'s a \\\\ backslash' AS s";
    "RETURN 'tab\\tnl\\ncr\\rbs\\bff\\fvt\\u000b' AS s";
    "RETURN 'unicode \\u00e9\\u20ac' AS s";
    (* names that are not plain identifiers print backtick-quoted, and
       floats print as exactly the float parsed *)
    "MATCH (`my node`:`My Label` {`a key`: 1})-[`r``1`:`HAS A`]->(b) SET \
     `my node`.`the k` = 2 REMOVE b:`Old One` RETURN `my node`.`a key` AS `the \
     value`";
    "UNWIND [1] AS `an x` FOREACH (`y z` IN [`an x`] | CREATE (:A {v: `y z`}))";
    "RETURN 9007199254740992.0 AS a, 3.14159265358979 AS b, 0.1 AS c, 1e300 AS d";
  ]

let unit_tests =
  List.mapi
    (fun i src -> case (Printf.sprintf "round-trip %d" i) (fun () -> roundtrip_query src))
    hand_written

(* ------------------------------------------------------------------ *)
(* Random ASTs                                                        *)
(* ------------------------------------------------------------------ *)

let gen_name = QCheck.Gen.(oneofl [ "a"; "b"; "n"; "m"; "x42"; "total" ])
let gen_label = QCheck.Gen.(oneofl [ "User"; "Product"; "Vendor"; "X" ])
let gen_key = QCheck.Gen.(oneofl [ "id"; "name"; "x"; "y" ])

let gen_lit =
  QCheck.Gen.(
    oneof
      [
        return L_null;
        map (fun b -> L_bool b) bool;
        map (fun i -> L_int i) (int_range (-100) 100);
        map
          (fun s -> L_string s)
          (oneofl
             [ "a"; "hello"; "x y"; "it's"; "a\nb"; "q\"q"; "\011\012\r\b" ]);
      ])

let gen_expr =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  map (fun l -> Lit l) gen_lit;
                  map (fun v -> Var v) gen_name;
                  map (fun p -> Param p) gen_name;
                ]
            else
              let sub = self (n / 2) in
              oneof
                [
                  map (fun l -> Lit l) gen_lit;
                  map (fun v -> Var v) gen_name;
                  map2 (fun e k -> Prop (e, k)) (map (fun v -> Var v) gen_name) gen_key;
                  map2 (fun a b -> And (a, b)) sub sub;
                  map2 (fun a b -> Or (a, b)) sub sub;
                  map (fun a -> Not a) sub;
                  map2 (fun a b -> Cmp (Eq, a, b)) sub sub;
                  map2 (fun a b -> Cmp (Lt, a, b)) sub sub;
                  map2 (fun a b -> Bin (Add, a, b)) sub sub;
                  map2 (fun a b -> Bin (Mul, a, b)) sub sub;
                  map (fun es -> List_lit es) (list_size (int_bound 3) sub);
                  map (fun e -> Is_null e) sub;
                  map2 (fun a b -> In_list (a, b)) sub sub;
                  map (fun e -> Fn ("size", [ e ])) sub;
                ])
          (min size 5)))

let gen_props = QCheck.Gen.(list_size (int_bound 2) (pair gen_key gen_expr))

let gen_node_pat =
  QCheck.Gen.(
    map3
      (fun var labels props -> { np_var = var; np_labels = labels; np_props = props })
      (opt gen_name)
      (list_size (int_bound 2) gen_label)
      gen_props)

let gen_rel_pat ~directed =
  QCheck.Gen.(
    let gen_dir = if directed then oneofl [ Out; In ] else oneofl [ Out; In; Undirected ] in
    map3
      (fun var dir props ->
        { rp_var = var; rp_types = [ "T" ]; rp_props = props; rp_dir = dir; rp_range = None })
      (opt gen_name) gen_dir gen_props)

let gen_pattern ~directed =
  QCheck.Gen.(
    map2
      (fun start steps -> { pat_var = None; pat_start = start; pat_steps = steps })
      gen_node_pat
      (list_size (int_bound 2) (pair (gen_rel_pat ~directed) gen_node_pat)))

let gen_clause =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun patterns where -> Match { optional = false; patterns; where })
          (list_size (int_range 1 2) (gen_pattern ~directed:false))
          (opt gen_expr);
        map (fun ps -> Create ps) (list_size (int_range 1 2) (gen_pattern ~directed:true));
        map
          (fun items -> Set items)
          (list_size (int_range 1 3)
             (map3
                (fun v k e -> Set_prop (Var v, k, e))
                gen_name gen_key gen_expr));
        map (fun es -> Delete { detach = true; targets = es })
          (list_size (int_range 1 2) (map (fun v -> Var v) gen_name));
        map2 (fun source alias -> Unwind { source; alias }) gen_expr gen_name;
        map2
          (fun p oc -> Merge { mode = Merge_all; patterns = [ p ]; on_create = oc; on_match = [] })
          (gen_pattern ~directed:true)
          (list_size (int_bound 1)
             (map3 (fun v k e -> Set_prop (Var v, k, e)) gen_name gen_key gen_expr));
      ])

let gen_query =
  QCheck.Gen.(
    map2
      (fun clauses items ->
        {
          clauses =
            clauses
            @ [
                Return
                  {
                    default_projection with
                    proj_items =
                      List.map (fun (e, a) -> { item_expr = e; item_alias = Some a }) items;
                  };
              ];
          union = None;
        })
      (list_size (int_bound 3) gen_clause)
      (list_size (int_range 1 2) (pair gen_expr (oneofl [ "o1"; "o2"; "o3" ]))))

let arb_query =
  QCheck.make ~print:Pretty.query_to_string gen_query

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parse (print q) = q on random ASTs" ~count:300
         arb_query (fun q ->
           (* distinct aliases guaranteed by construction except when both
              items picked the same; skip those *)
           let aliases =
             List.filter_map
               (fun c ->
                 match c with
                 | Return p -> Some (List.map (fun i -> i.item_alias) p.proj_items)
                 | _ -> None)
               q.clauses
           in
           let distinct l = List.sort_uniq compare l = List.sort compare l in
           QCheck.assume (List.for_all distinct aliases);
           let printed = Pretty.query_to_string q in
           match Parser.parse_string printed with
           | Error e ->
               QCheck.Test.fail_reportf "reparse failed on %S: %s" printed
                 (Parser.error_to_string e)
           | Ok q' ->
               if q = q' then true
               else
                 QCheck.Test.fail_reportf "round-trip changed AST for %S" printed));
  ]

let suite = unit_tests @ qcheck_tests
