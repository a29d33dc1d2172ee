(** Expression semantics [[e]]G,u: arithmetic, ternary-logic predicates,
    null propagation, built-in functions, CASE, comprehensions. *)

open Cypher_graph
open Test_util

(** Evaluates a standalone expression via RETURN on an empty graph. *)
let eval ?config src =
  first_cell (run_table ?config Graph.empty (Printf.sprintf "RETURN %s AS r" src))

let eval_on g src = first_cell (run_table g (Printf.sprintf "MATCH (n) RETURN %s AS r" src))

let check name expected src = check_value name expected (eval src)

let arithmetic_tests =
  [
    case "integer arithmetic" (fun () ->
        check "add" (vint 7) "3 + 4";
        check "sub" (vint (-1)) "3 - 4";
        check "mul" (vint 12) "3 * 4";
        check "integer division truncates" (vint 2) "7 / 3";
        check "modulo" (vint 1) "7 % 3");
    case "mixed int/float promotes" (fun () ->
        check "add" (Value.Float 4.5) "3 + 1.5";
        check "div" (Value.Float 3.5) "7 / 2.0");
    case "power always returns float" (fun () ->
        check "pow" (Value.Float 8.0) "2 ^ 3");
    case "unary minus" (fun () -> check "neg" (vint (-5)) "-(2 + 3)");
    case "string concatenation with +" (fun () ->
        check "ss" (vstr "ab") "'a' + 'b'";
        check "si" (vstr "a1") "'a' + 1";
        check "is" (vstr "1a") "1 + 'a'");
    case "list concatenation with +" (fun () ->
        check "ll" (vlist [ vint 1; vint 2 ]) "[1] + [2]";
        check "le" (vlist [ vint 1; vint 2 ]) "[1] + 2";
        check "el" (vlist [ vint 1; vint 2 ]) "1 + [2]");
    case "null propagates through arithmetic" (fun () ->
        check "add" vnull "1 + null";
        check "mul" vnull "null * 2";
        check "neg" vnull "-null");
    case "division by zero is an error" (fun () ->
        match run_err Graph.empty "RETURN 1 / 0" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
  ]

let predicate_tests =
  [
    case "comparisons return booleans" (fun () ->
        check "lt" (vbool true) "1 < 2";
        check "ge" (vbool false) "1 >= 2";
        check "eq" (vbool true) "1 = 1.0";
        check "neq" (vbool true) "1 <> 2");
    case "comparisons with null return null" (fun () ->
        check "eq" vnull "1 = null";
        check "lt" vnull "null < 2";
        check "neq" vnull "null <> null");
    case "incomparable types compare to null" (fun () ->
        check "int vs string" vnull "1 < 'a'");
    case "boolean connectives use three-valued logic" (fun () ->
        check "true and null" vnull "true AND null";
        check "false and null" (vbool false) "false AND null";
        check "true or null" (vbool true) "true OR null";
        check "false or null" vnull "false OR null";
        check "not null" vnull "NOT null";
        check "xor null" vnull "true XOR null");
    case "IS NULL is never null" (fun () ->
        check "is null" (vbool true) "null IS NULL";
        check "is not null" (vbool false) "null IS NOT NULL";
        check "value" (vbool false) "1 IS NULL");
    case "IN with nulls" (fun () ->
        check "found" (vbool true) "2 IN [1, 2]";
        check "missing" (vbool false) "3 IN [1, 2]";
        check "missing with null member" vnull "3 IN [1, null]";
        check "found despite null member" (vbool true) "1 IN [1, null]";
        check "null lhs" vnull "null IN [1]";
        check "null lhs empty list" (vbool false) "null IN []");
    case "string predicates" (fun () ->
        check "starts" (vbool true) "'hello' STARTS WITH 'he'";
        check "ends" (vbool true) "'hello' ENDS WITH 'lo'";
        check "contains" (vbool true) "'hello' CONTAINS 'ell'";
        check "contains not" (vbool false) "'hello' CONTAINS 'xyz'";
        check "null operand" vnull "null STARTS WITH 'a'");
    case "chained comparisons associate left" (fun () ->
        (* (1 < 2) < true? left-assoc: Cmp(Lt, Cmp(Lt,1,2), 3) — bool vs
           int is incomparable, so null *)
        check "chain" vnull "1 < 2 < 3");
  ]

let structure_tests =
  [
    case "list indexing" (fun () ->
        check "first" (vint 10) "[10, 20, 30][0]";
        check "negative" (vint 30) "[10, 20, 30][-1]";
        check "out of range" vnull "[10][5]";
        check "null index" vnull "[10][null]");
    case "list slicing" (fun () ->
        check "middle" (vlist [ vint 20; vint 30 ]) "[10, 20, 30, 40][1..3]";
        check "open end" (vlist [ vint 30; vint 40 ]) "[10, 20, 30, 40][2..]";
        check "open start" (vlist [ vint 10 ]) "[10, 20, 30, 40][..1]";
        check "negative bounds" (vlist [ vint 30 ]) "[10, 20, 30, 40][-2..-1]");
    case "map literals and access" (fun () ->
        check "dot" (vint 1) "{a: 1}.a";
        check "index" (vint 1) "{a: 1}['a']";
        check "missing key" vnull "{a: 1}.b");
    case "property access on null is null" (fun () -> check "prop" vnull "null.x");
    case "case with operand" (fun () ->
        check "hit" (vstr "one") "CASE 1 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END";
        check "default" (vstr "many") "CASE 9 WHEN 1 THEN 'one' ELSE 'many' END";
        check "no default" vnull "CASE 9 WHEN 1 THEN 'one' END");
    case "searched case" (fun () ->
        check "first true wins" (vstr "big") "CASE WHEN 5 > 3 THEN 'big' WHEN true THEN 'other' END");
    case "list comprehension" (fun () ->
        check "filter and map" (vlist [ vint 4; vint 6 ])
          "[x IN [1, 2, 3] WHERE x > 1 | x * 2]";
        check "filter only" (vlist [ vint 2; vint 3 ]) "[x IN [1, 2, 3] WHERE x > 1]";
        check "map only" (vlist [ vint 2; vint 4; vint 6 ]) "[x IN [1, 2, 3] | x * 2]";
        check "null source" vnull "[x IN null | x]");
  ]

let function_tests =
  [
    case "coalesce returns first non-null" (fun () ->
        check "second" (vint 2) "coalesce(null, 2, 3)";
        check "all null" vnull "coalesce(null, null)");
    case "size and length" (fun () ->
        check "list" (vint 3) "size([1, 2, 3])";
        check "string" (vint 5) "size('hello')";
        check "null" vnull "size(null)");
    case "head / last / tail" (fun () ->
        check "head" (vint 1) "head([1, 2])";
        check "last" (vint 2) "last([1, 2])";
        check "tail" (vlist [ vint 2 ]) "tail([1, 2])";
        check "head of empty" vnull "head([])");
    case "range" (fun () ->
        check "simple" (vlist [ vint 1; vint 2; vint 3 ]) "range(1, 3)";
        check "step" (vlist [ vint 0; vint 2; vint 4 ]) "range(0, 5, 2)";
        check "descending" (vlist [ vint 3; vint 2 ]) "range(3, 2, -1)";
        check "empty" (vlist []) "range(3, 1)");
    case "reverse" (fun () ->
        check "list" (vlist [ vint 2; vint 1 ]) "reverse([1, 2])";
        check "string" (vstr "cba") "reverse('abc')");
    case "string functions" (fun () ->
        check "upper" (vstr "AB") "toUpper('ab')";
        check "lower" (vstr "ab") "toLower('AB')";
        check "trim" (vstr "x") "trim('  x  ')";
        check "substring" (vstr "ell") "substring('hello', 1, 3)";
        check "split" (vlist [ vstr "a"; vstr "b" ]) "split('a,b', ',')";
        check "replace" (vstr "b.b") "replace('a.a', 'a', 'b')";
        check "left" (vstr "he") "left('hello', 2)";
        check "right" (vstr "lo") "right('hello', 2)");
    case "conversions" (fun () ->
        check "toInteger of string" (vint 42) "toInteger('42')";
        check "toInteger garbage" vnull "toInteger('abc')";
        check "toFloat" (Value.Float 2.5) "toFloat('2.5')";
        check "toString" (vstr "42") "toString(42)";
        check "toBoolean" (vbool true) "toBoolean('true')");
    case "numeric functions" (fun () ->
        check "abs" (vint 3) "abs(-3)";
        check "sign" (vint (-1)) "sign(-3)";
        check "sqrt" (Value.Float 3.0) "sqrt(9)";
        check "floor" (Value.Float 1.0) "floor(1.7)";
        check "ceil" (Value.Float 2.0) "ceil(1.2)");
    case "unknown function errors" (fun () ->
        match run_err Graph.empty "RETURN frobnicate(1)" with
        | Cypher_core.Errors.Eval_error m ->
            Alcotest.(check bool) "mentions name" true (String.length m > 0)
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
    case "entity functions" (fun () ->
        let g = graph_of "CREATE (:Person {name: 'Ada', age: 36})" in
        check_value "labels" (vlist [ vstr "Person" ]) (eval_on g "labels(n)");
        check_value "keys" (vlist [ vstr "age"; vstr "name" ]) (eval_on g "keys(n)");
        check_value "properties"
          (Value.map_of_list [ ("age", vint 36); ("name", vstr "Ada") ])
          (eval_on g "properties(n)");
        check_value "exists prop" (vbool true) (eval_on g "exists(n.name)");
        check_value "exists missing" (vbool false) (eval_on g "exists(n.email)"));
    case "relationship functions" (fun () ->
        let g = graph_of "CREATE (:A)-[:KNOWS {since: 1999}]->(:B)" in
        let t =
          run_table g
            "MATCH (a)-[r]->(b) RETURN type(r) AS t, startNode(r) = a AS s, \
             endNode(r) = b AS e, r.since AS y"
        in
        let row = List.hd (Cypher_table.Table.rows t) in
        check_value "type" (vstr "KNOWS") (Cypher_table.Record.find row "t");
        check_value "start" (vbool true) (Cypher_table.Record.find row "s");
        check_value "end" (vbool true) (Cypher_table.Record.find row "e");
        check_value "prop" (vint 1999) (Cypher_table.Record.find row "y"));
    case "id returns distinct identities" (fun () ->
        let g = graph_of "CREATE (:A), (:B)" in
        let t = run_table g "MATCH (n) RETURN id(n) AS i" in
        let ids = column t "i" in
        Alcotest.(check int) "two ids" 2 (List.length (List.sort_uniq compare ids)));
    case "parameters reach expressions" (fun () ->
        let config =
          Cypher_core.Config.(with_param "who" (vstr "Bob") revised)
        in
        check_value "param" (vstr "Bob") (eval ~config "$who");
        match run_err Graph.empty "RETURN $missing" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
  ]

let suite = arithmetic_tests @ predicate_tests @ structure_tests @ function_tests

(* additional breadth coverage for builtins and evaluator edges *)
let edge_tests =
  [
    case "numeric function edges" (fun () ->
        check "round half" (Value.Float 2.0) "round(1.5)";
        check "exp of 0" (Value.Float 1.0) "exp(0)";
        check "log of 1" (Value.Float 0.0) "log(1)";
        check "sqrt of int" (Value.Float 2.0) "sqrt(4)";
        check "sign zero" (vint 0) "sign(0)";
        check "abs of float" (Value.Float 2.5) "abs(-2.5)";
        check "null through sqrt" vnull "sqrt(null)");
    case "string function edges" (fun () ->
        check "ltrim" (vstr "x ") "ltrim('  x ')";
        check "rtrim" (vstr " x") "rtrim(' x  ')";
        check "substring beyond end" (vstr "") "substring('ab', 5)";
        check "left beyond end" (vstr "ab") "left('ab', 9)";
        check "split into single" (vlist [ vstr "abc" ]) "split('abc', ',')";
        check "replace all occurrences" (vstr "yyy") "replace('xxx', 'x', 'y')";
        check "toString of list" (vstr "[1, 2]") "toString([1, 2])";
        check "toString of bool" (vstr "true") "toString(true)");
    case "range edges" (fun () ->
        check "single element" (vlist [ vint 5 ]) "range(5, 5)";
        check "negative step skips" (vlist [ vint 5; vint 3 ]) "range(5, 2, -2)");
    case "coalesce edge cases" (fun () ->
        check "first wins" (vint 1) "coalesce(1, 2)";
        check "no args" vnull "coalesce()");
    case "deeply nested expressions do not break the parser" (fun () ->
        let deep = String.make 200 '(' ^ "1" ^ String.make 200 ')' in
        check "nested" (vint 1) deep);
    case "long operator chains" (fun () ->
        let sum = String.concat " + " (List.init 200 string_of_int) in
        check "sum 0..199" (vint (199 * 200 / 2)) sum);
    case "case falls through all whens" (fun () ->
        check "fallthrough" vnull "CASE 5 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END");
    case "boolean operator chains mix correctly" (fun () ->
        check "precedence" (vbool true) "true OR false AND false";
        check "xor chain" (vbool false) "true XOR true XOR false");
    case "float formatting round-trips through toString" (fun () ->
        check "whole float" (vstr "2.0") "toString(2.0)");
    case "toString prints every nan as nan, whatever its sign bit" (fun () ->
        check "0.0 / 0.0" (vstr "nan") "toString(0.0 / 0.0)";
        check "toFloat('nan')" (vstr "nan") "toString(toFloat('nan'))";
        check "in a list" (vstr "[nan, nan]") "toString([0.0 / 0.0, -(0.0 / 0.0)])");
    case "unicode-ish bytes survive string functions" (fun () ->
        check "size counts bytes" (vint 3) "size('日')";
        check "concat" (vstr "日x") "'日' + 'x'");
  ]

let suite = suite @ edge_tests

let trig_tests =
  [
    case "trigonometry and constants" (fun () ->
        check "sin 0" (Value.Float 0.0) "sin(0)";
        check "cos 0" (Value.Float 1.0) "cos(0)";
        check "atan2 quadrant" (Value.Float (Float.atan2 1.0 1.0)) "atan2(1, 1)";
        check "pi" (Value.Float Float.pi) "pi()";
        check "e" (Value.Float (Float.exp 1.0)) "e()";
        check "log10" (Value.Float 2.0) "log10(100)";
        check "null propagates" vnull "sin(null)")
  ]

let suite = suite @ trig_tests
