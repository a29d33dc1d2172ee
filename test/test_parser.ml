(** The parser and the dialect validators (experiments G1 and G2). *)

open Cypher_ast.Ast
module Validate = Cypher_ast.Validate
module Parser = Cypher_parser.Parser
open Test_util

let parse src =
  match Parser.parse_string src with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e)

let parse_expr src =
  match Parser.parse_expr_string src with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e)

let parse_fails src =
  match Parser.parse_string src with Ok _ -> false | Error _ -> true

let valid dialect src =
  match Validate.validate dialect (parse src) with Ok _ -> true | Error _ -> false

let shape name ok = if not ok then Alcotest.failf "unexpected AST shape: %s" name

let expr_tests =
  [
    case "precedence: arithmetic under comparison under boolean" (fun () ->
        shape "1 + 2 * 3 = 7 AND true"
          (match parse_expr "1 + 2 * 3 = 7 AND true" with
          | And (Cmp (Eq, Bin (Add, _, Bin (Mul, _, _)), _), Lit (L_bool true)) ->
              true
          | _ -> false));
    case "power is right-associative" (fun () ->
        shape "2 ^ 3 ^ 4"
          (match parse_expr "2 ^ 3 ^ 4" with
          | Bin (Pow, _, Bin (Pow, _, _)) -> true
          | _ -> false));
    case "unary minus binds tighter than subtraction" (fun () ->
        shape "-a - b"
          (match parse_expr "-a - b" with
          | Bin (Sub, Neg (Var "a"), Var "b") -> true
          | _ -> false));
    case "postfix chains: property, index, labels" (fun () ->
        shape "n.a.b"
          (match parse_expr "n.a.b" with
          | Prop (Prop (Var "n", "a"), "b") -> true
          | _ -> false);
        shape "xs[0]"
          (match parse_expr "xs[0]" with
          | Index (Var "xs", Lit (L_int 0)) -> true
          | _ -> false);
        shape "n:Person:Admin"
          (match parse_expr "n:Person:Admin" with
          | Has_labels (Var "n", [ "Person"; "Admin" ]) -> true
          | _ -> false));
    case "slices" (fun () ->
        shape "xs[1..3]"
          (match parse_expr "xs[1..3]" with
          | Slice (Var "xs", Some _, Some _) -> true
          | _ -> false);
        shape "xs[..3]"
          (match parse_expr "xs[..3]" with
          | Slice (Var "xs", None, Some _) -> true
          | _ -> false);
        shape "xs[1..]"
          (match parse_expr "xs[1..]" with
          | Slice (Var "xs", Some _, None) -> true
          | _ -> false));
    case "IS NULL / IS NOT NULL" (fun () ->
        shape "IS NULL"
          (match parse_expr "n.x IS NULL" with Is_null (Prop _) -> true | _ -> false);
        shape "IS NOT NULL"
          (match parse_expr "n.x IS NOT NULL" with
          | Is_not_null (Prop _) -> true
          | _ -> false));
    case "string operators" (fun () ->
        shape "string ops"
          (match
             parse_expr "a STARTS WITH 'x' AND a ENDS WITH 'y' AND a CONTAINS 'z'"
           with
          | And
              ( Str_op (Starts_with, _, _),
                And (Str_op (Ends_with, _, _), Str_op (Contains, _, _)) ) ->
              true
          | _ -> false));
    case "IN list" (fun () ->
        shape "x IN [1,2]"
          (match parse_expr "x IN [1, 2]" with
          | In_list (Var "x", List_lit [ _; _ ]) -> true
          | _ -> false));
    case "aggregates and count-star" (fun () ->
        shape "count(*)"
          (match parse_expr "count(*)" with
          | Agg (Count, false, None) -> true
          | _ -> false);
        shape "count distinct"
          (match parse_expr "count(DISTINCT n.x)" with
          | Agg (Count, true, Some _) -> true
          | _ -> false);
        shape "collect"
          (match parse_expr "collect(n)" with
          | Agg (Collect, false, Some (Var "n")) -> true
          | _ -> false));
    case "function calls are lowercased" (fun () ->
        shape "toUpper"
          (match parse_expr "toUpper(s)" with
          | Fn ("toupper", [ Var "s" ]) -> true
          | _ -> false));
    case "case expressions" (fun () ->
        shape "simple case"
          (match parse_expr "CASE n.x WHEN 1 THEN 'a' ELSE 'b' END" with
          | Case { case_operand = Some _; case_whens = [ _ ]; case_default = Some _ }
            ->
              true
          | _ -> false);
        shape "searched case"
          (match parse_expr "CASE WHEN a > 1 THEN 'a' END" with
          | Case { case_operand = None; case_whens = [ _ ]; case_default = None } ->
              true
          | _ -> false));
    case "list comprehension" (fun () ->
        shape "comprehension"
          (match parse_expr "[x IN xs WHERE x > 0 | x * 2]" with
          | List_comp { comp_var = "x"; comp_where = Some _; comp_body = Some _; _ }
            ->
              true
          | _ -> false));
    case "map and list literals" (fun () ->
        shape "map"
          (match parse_expr "{a: 1, b: 'x'}" with
          | Map_lit [ ("a", _); ("b", _) ] -> true
          | _ -> false);
        shape "list"
          (match parse_expr "[1, 2, 3]" with
          | List_lit [ _; _; _ ] -> true
          | _ -> false));
    case "parameters" (fun () ->
        shape "$limit + 1"
          (match parse_expr "$limit + 1" with
          | Bin (Add, Param "limit", _) -> true
          | _ -> false));
    case "contextual keywords are valid variable names" (fun () ->
        (* the paper's own Section 4.2 query binds a relationship
           variable named `order` *)
        shape "order as var"
          (match parse_expr "order.x" with
          | Prop (Var "order", "x") -> true
          | _ -> false);
        shape "limit as var"
          (match parse_expr "limit + 1" with
          | Bin (Add, Var "limit", _) -> true
          | _ -> false));
  ]

let pattern_tests =
  [
    case "full relationship pattern" (fun () ->
        match parse "MATCH (a:A {x: 1})-[r:T {y: 2}]->(b) RETURN a" with
        | { clauses = [ Match { patterns = [ p ]; _ }; _ ]; _ } -> (
            Alcotest.(check (option string)) "start var" (Some "a") p.pat_start.np_var;
            Alcotest.(check (list string)) "labels" [ "A" ] p.pat_start.np_labels;
            match p.pat_steps with
            | [ (rp, np) ] ->
                Alcotest.(check (option string)) "rel var" (Some "r") rp.rp_var;
                Alcotest.(check (list string)) "types" [ "T" ] rp.rp_types;
                Alcotest.(check bool) "dir out" true (rp.rp_dir = Out);
                Alcotest.(check (option string)) "end var" (Some "b") np.np_var
            | _ -> Alcotest.fail "steps")
        | _ -> Alcotest.fail "clause shape");
    case "left and undirected arrows" (fun () ->
        match parse "MATCH (a)<-[:T]-(b), (c)-[:U]-(d) RETURN a" with
        | { clauses = [ Match { patterns = [ p1; p2 ]; _ }; _ ]; _ } ->
            Alcotest.(check bool) "in" true ((fst (List.hd p1.pat_steps)).rp_dir = In);
            Alcotest.(check bool) "undirected" true
              ((fst (List.hd p2.pat_steps)).rp_dir = Undirected)
        | _ -> Alcotest.fail "clause shape");
    case "arrow shorthand without brackets" (fun () ->
        match parse "MATCH (a)-->(b), (c)<--(d), (e)--(f) RETURN a" with
        | { clauses = [ Match { patterns = [ p1; p2; p3 ]; _ }; _ ]; _ } ->
            Alcotest.(check bool) "out" true ((fst (List.hd p1.pat_steps)).rp_dir = Out);
            Alcotest.(check bool) "in" true ((fst (List.hd p2.pat_steps)).rp_dir = In);
            Alcotest.(check bool) "undirected" true
              ((fst (List.hd p3.pat_steps)).rp_dir = Undirected)
        | _ -> Alcotest.fail "clause shape");
    case "variable-length ranges" (fun () ->
        let range src =
          match parse src with
          | { clauses = [ Match { patterns = [ p ]; _ }; _ ]; _ } ->
              (fst (List.hd p.pat_steps)).rp_range
          | _ -> Alcotest.fail "clause shape"
        in
        Alcotest.(check bool) "*" true (range "MATCH (a)-[*]->(b) RETURN a" = Some (None, None));
        Alcotest.(check bool) "*2" true
          (range "MATCH (a)-[*2]->(b) RETURN a" = Some (Some 2, Some 2));
        Alcotest.(check bool) "*1..3" true
          (range "MATCH (a)-[*1..3]->(b) RETURN a" = Some (Some 1, Some 3));
        Alcotest.(check bool) "*..3" true
          (range "MATCH (a)-[*..3]->(b) RETURN a" = Some (None, Some 3)));
    case "type alternatives" (fun () ->
        match parse "MATCH (a)-[:T|U]->(b) RETURN a" with
        | { clauses = [ Match { patterns = [ p ]; _ }; _ ]; _ } ->
            Alcotest.(check (list string)) "types" [ "T"; "U" ]
              (fst (List.hd p.pat_steps)).rp_types
        | _ -> Alcotest.fail "clause shape");
    case "named paths" (fun () ->
        match parse "MATCH p = (a)-[:T]->(b) RETURN p" with
        | { clauses = [ Match { patterns = [ p ]; _ }; _ ]; _ } ->
            Alcotest.(check (option string)) "path var" (Some "p") p.pat_var
        | _ -> Alcotest.fail "clause shape");
  ]

let clause_tests =
  [
    case "clause sequences" (fun () ->
        let q =
          parse
            "MATCH (u:User) WHERE u.id = 89 CREATE (u)-[:ORDERED]->(p:P) \
             SET p.x = 1 REMOVE p:P DETACH DELETE p"
        in
        Alcotest.(check int) "five clauses" 5 (List.length q.clauses));
    case "optional match" (fun () ->
        match parse "OPTIONAL MATCH (a) RETURN a" with
        | { clauses = [ Match { optional = true; _ }; _ ]; _ } -> ()
        | _ -> Alcotest.fail "optional");
    case "unwind" (fun () ->
        match parse "UNWIND [1,2] AS x RETURN x" with
        | { clauses = [ Unwind { alias = "x"; _ }; _ ]; _ } -> ()
        | _ -> Alcotest.fail "unwind");
    case "projection trimmings" (fun () ->
        match parse "MATCH (n) RETURN DISTINCT n.x AS x ORDER BY x DESC SKIP 1 LIMIT 2" with
        | { clauses = [ _; Return p ]; _ } ->
            Alcotest.(check bool) "distinct" true p.proj_distinct;
            Alcotest.(check int) "order" 1 (List.length p.proj_order);
            Alcotest.(check bool) "desc" false
              (List.hd p.proj_order).sort_ascending;
            Alcotest.(check bool) "skip" true (p.proj_skip <> None);
            Alcotest.(check bool) "limit" true (p.proj_limit <> None)
        | _ -> Alcotest.fail "return");
    case "with star and where" (fun () ->
        match parse "MATCH (n) WITH * WHERE n.x > 1 RETURN n" with
        | { clauses = [ _; With p; _ ]; _ } ->
            Alcotest.(check bool) "star" true p.proj_star;
            Alcotest.(check bool) "where" true (p.proj_where <> None)
        | _ -> Alcotest.fail "with");
    case "set item forms" (fun () ->
        match parse "MATCH (n) SET n.x = 1, n += {y: 2}, n = {z: 3}, n:L1:L2" with
        | { clauses = [ _; Set [ Set_prop _; Set_merge_props _; Set_all_props _; Set_labels (_, [ "L1"; "L2" ]) ] ]; _ } ->
            ()
        | _ -> Alcotest.fail "set items");
    case "remove item forms" (fun () ->
        match parse "MATCH (n) REMOVE n.x, n:L" with
        | { clauses = [ _; Remove [ Rem_prop _; Rem_labels _ ] ]; _ } -> ()
        | _ -> Alcotest.fail "remove items");
    case "delete and detach delete" (fun () ->
        (match parse "MATCH (n) DELETE n" with
        | { clauses = [ _; Delete { detach = false; _ } ]; _ } -> ()
        | _ -> Alcotest.fail "delete");
        match parse "MATCH (n) DETACH DELETE n" with
        | { clauses = [ _; Delete { detach = true; _ } ]; _ } -> ()
        | _ -> Alcotest.fail "detach delete");
    case "merge modes" (fun () ->
        let mode src =
          match parse src with
          | { clauses = [ Merge { mode; _ } ]; _ } -> mode
          | _ -> Alcotest.fail "merge"
        in
        Alcotest.(check bool) "legacy" true (mode "MERGE (n:X)" = Merge_legacy);
        Alcotest.(check bool) "all" true (mode "MERGE ALL (n:X)" = Merge_all);
        Alcotest.(check bool) "same" true (mode "MERGE SAME (n:X)" = Merge_same);
        Alcotest.(check bool) "grouping" true
          (mode "MERGE GROUPING (n:X)" = Merge_grouping);
        Alcotest.(check bool) "weak" true
          (mode "MERGE WEAK (n:X)" = Merge_weak_collapse);
        Alcotest.(check bool) "collapse" true
          (mode "MERGE COLLAPSE (n:X)" = Merge_collapse));
    case "merge with a variable called all" (fun () ->
        (* MERGE all = (...) must read `all` as a path variable *)
        match parse "MERGE all = (n:X)" with
        | { clauses = [ Merge { mode = Merge_legacy; patterns = [ p ]; _ } ]; _ } ->
            Alcotest.(check (option string)) "path var" (Some "all") p.pat_var
        | _ -> Alcotest.fail "merge path var");
    case "merge subclauses" (fun () ->
        match parse "MERGE (n:X) ON CREATE SET n.c = 1 ON MATCH SET n.m = 2" with
        | { clauses = [ Merge { on_create = [ _ ]; on_match = [ _ ]; _ } ]; _ } -> ()
        | _ -> Alcotest.fail "on create/match");
    case "foreach" (fun () ->
        match parse "MATCH (n) FOREACH (x IN [1,2] | SET n.a = x SET n.b = x)" with
        | { clauses = [ _; Foreach { fe_var = "x"; fe_body = [ Set _; Set _ ]; _ } ]; _ }
          ->
            ()
        | _ -> Alcotest.fail "foreach");
    case "union and union all" (fun () ->
        (match parse "RETURN 1 AS x UNION RETURN 2 AS x" with
        | { union = Some (false, _); _ } -> ()
        | _ -> Alcotest.fail "union");
        match parse "RETURN 1 AS x UNION ALL RETURN 2 AS x" with
        | { union = Some (true, _); _ } -> ()
        | _ -> Alcotest.fail "union all");
    case "programs split on semicolons" (fun () ->
        match Parser.parse_statements "RETURN 1; RETURN 2;" with
        | Ok [ _; _ ] -> ()
        | Ok qs -> Alcotest.failf "expected 2 queries, got %d" (List.length qs)
        | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e));
    case "each statement of a program carries its own parameters" (fun () ->
        match
          Parser.parse_statements
            "MATCH (n) WHERE n.a = $x RETURN n;\nPROFILE RETURN $y, $x, $y"
        with
        | Ok [ (Parser.Plain, _, first); (Parser.Profile, _, second) ] ->
            let params = Alcotest.(list (pair string (pair int int))) in
            Alcotest.check params "first" [ ("x", (1, 23)) ] first;
            Alcotest.check params "second, positioned in the program"
              [ ("y", (2, 16)); ("x", (2, 20)) ]
              second
        | Ok _ -> Alcotest.fail "expected a plain and a PROFILE statement"
        | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e));
    case "parse errors carry positions" (fun () ->
        match Parser.parse_string "MATCH (n) RETURN" with
        | Error e -> Alcotest.(check bool) "line 1" true (e.Parser.line = 1)
        | Ok _ -> Alcotest.fail "should not parse");
    case "garbage after query is rejected" (fun () ->
        Alcotest.(check bool) "fails" true (parse_fails "RETURN 1 garbage ,"));
  ]

let validation_tests =
  [
    case "G1: Cypher 9 requires WITH between update and reading clauses" (fun () ->
        let src = "CREATE (n:X) MATCH (m) RETURN m" in
        Alcotest.(check bool) "cypher9 rejects" false (valid Validate.Cypher9 src);
        Alcotest.(check bool) "revised accepts" true (valid Validate.Revised src);
        let with_src = "CREATE (n:X) WITH n MATCH (m) RETURN m" in
        Alcotest.(check bool) "cypher9 accepts with WITH" true
          (valid Validate.Cypher9 with_src));
    case "G1: Cypher 9 MERGE takes a single, possibly undirected pattern" (fun () ->
        Alcotest.(check bool) "undirected ok" true
          (valid Validate.Cypher9 "MERGE (a)-[:T]-(b)");
        Alcotest.(check bool) "tuple rejected" false
          (valid Validate.Cypher9 "MERGE (a:X), (b:Y)"));
    case "G1: CREATE relationships must be directed and typed" (fun () ->
        Alcotest.(check bool) "undirected rejected" false
          (valid Validate.Cypher9 "CREATE (a)-[:T]-(b)");
        Alcotest.(check bool) "untyped rejected" false
          (valid Validate.Cypher9 "CREATE (a)-[]->(b)");
        Alcotest.(check bool) "var-length rejected" false
          (valid Validate.Cypher9 "CREATE (a)-[:T*2]->(b)"));
    case "G1: MERGE ALL does not exist in Cypher 9" (fun () ->
        Alcotest.(check bool) "rejected" false
          (valid Validate.Cypher9 "MERGE ALL (a:X)"));
    case "G2: revised grammar forbids plain MERGE" (fun () ->
        Alcotest.(check bool) "plain rejected" false
          (valid Validate.Revised "MERGE (a:X)");
        Alcotest.(check bool) "ALL accepted" true
          (valid Validate.Revised "MERGE ALL (a:X)");
        Alcotest.(check bool) "SAME accepted" true
          (valid Validate.Revised "MERGE SAME (a:X)"));
    case "G2: revised MERGE takes tuples of directed patterns" (fun () ->
        Alcotest.(check bool) "tuple accepted" true
          (valid Validate.Revised "MERGE ALL (a:X), (b:Y)");
        Alcotest.(check bool) "undirected rejected" false
          (valid Validate.Revised "MERGE ALL (a)-[:T]-(b)"));
    case "G2: update clauses may follow reading clauses freely" (fun () ->
        Alcotest.(check bool) "free composition" true
          (valid Validate.Revised
             "CREATE (n:X) MATCH (m:X) SET m.y = 1 MATCH (k) RETURN k"));
    case "proposal modes require the permissive dialect" (fun () ->
        Alcotest.(check bool) "revised rejects GROUPING" false
          (valid Validate.Revised "MERGE GROUPING (a:X)");
        Alcotest.(check bool) "permissive accepts GROUPING" true
          (valid Validate.Permissive "MERGE GROUPING (a:X)"));
    case "RETURN must be last" (fun () ->
        Alcotest.(check bool) "rejected" false
          (valid Validate.Revised "RETURN 1 MATCH (n)"));
    case "FOREACH body must contain only update clauses" (fun () ->
        Alcotest.(check bool) "reading clause rejected" false
          (valid Validate.Revised "FOREACH (x IN [1] | MATCH (n))"));
  ]

let suite = expr_tests @ pattern_tests @ clause_tests @ validation_tests
