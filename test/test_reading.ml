(** Reading pipeline: RETURN/WITH projection, aggregation with implicit
    grouping, DISTINCT, ORDER BY, SKIP/LIMIT, UNWIND, UNION. *)

open Cypher_graph
open Cypher_table
open Test_util
module Api = Cypher_core.Api

let people =
  graph_of
    "CREATE (:P {name: 'a', dept: 'x', salary: 10}),\n\
    \       (:P {name: 'b', dept: 'x', salary: 20}),\n\
    \       (:P {name: 'c', dept: 'y', salary: 30})"

let ints t name = column t name

let projection_tests =
  [
    case "aliases name output columns" (fun () ->
        let t = run_table people "MATCH (p:P) RETURN p.name AS who LIMIT 1" in
        Alcotest.(check (list string)) "columns" [ "who" ] (Table.columns t));
    case "default column names come from the expression" (fun () ->
        let t = run_table people "MATCH (p:P) RETURN p.name LIMIT 1" in
        Alcotest.(check (list string)) "columns" [ "p.name" ] (Table.columns t));
    case "duplicate output columns are rejected" (fun () ->
        match run_err people "MATCH (p:P) RETURN p.name AS x, p.dept AS x" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
    case "WITH renames and narrows scope" (fun () ->
        let t = run_table people "MATCH (p:P) WITH p.name AS n RETURN n ORDER BY n" in
        Alcotest.(check (list value_testable)) "names"
          [ vstr "a"; vstr "b"; vstr "c" ] (ints t "n");
        (* p is out of scope after WITH *)
        match run_err people "MATCH (p:P) WITH p.name AS n RETURN p" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
    case "RETURN star keeps all columns" (fun () ->
        let t = run_table people "MATCH (p:P) WITH p.name AS n, p.dept AS d RETURN *" in
        Alcotest.(check (list string)) "columns" [ "n"; "d" ] (Table.columns t));
    case "WITH star plus extras" (fun () ->
        let t =
          run_table people
            "MATCH (p:P) WITH p.name AS n WITH *, size(n) AS len RETURN n, len LIMIT 1"
        in
        Alcotest.(check (list string)) "columns" [ "n"; "len" ] (Table.columns t));
    case "DISTINCT eliminates duplicate records" (fun () ->
        let t = run_table people "MATCH (p:P) RETURN DISTINCT p.dept AS d" in
        check_rows "two depts" 2 t);
    case "ORDER BY ascending and descending" (fun () ->
        let t = run_table people "MATCH (p:P) RETURN p.salary AS s ORDER BY s DESC" in
        Alcotest.(check (list value_testable)) "desc"
          [ vint 30; vint 20; vint 10 ] (ints t "s"));
    case "ORDER BY may reference non-projected variables" (fun () ->
        let t =
          run_table people "MATCH (p:P) RETURN p.name AS n ORDER BY p.salary DESC"
        in
        Alcotest.(check (list value_testable)) "by salary"
          [ vstr "c"; vstr "b"; vstr "a" ] (ints t "n"));
    case "nulls sort last" (fun () ->
        let g = graph_of "CREATE (:P {x: 2}), (:P), (:P {x: 1})" in
        let t = run_table g "MATCH (p:P) RETURN p.x AS x ORDER BY x" in
        Alcotest.(check (list value_testable)) "null last"
          [ vint 1; vint 2; vnull ] (ints t "x"));
    case "SKIP and LIMIT with expressions" (fun () ->
        let t =
          run_table people "MATCH (p:P) RETURN p.salary AS s ORDER BY s SKIP 1 LIMIT 1"
        in
        Alcotest.(check (list value_testable)) "middle" [ vint 20 ] (ints t "s"));
    case "WITH ... WHERE filters projected rows" (fun () ->
        let t =
          run_table people
            "MATCH (p:P) WITH p.salary AS s WHERE s > 15 RETURN s ORDER BY s"
        in
        Alcotest.(check (list value_testable)) "filtered" [ vint 20; vint 30 ]
          (ints t "s"));
  ]

let aggregation_tests =
  [
    case "count star over everything" (fun () ->
        check_value "count" (vint 3)
          (first_cell (run_table people "MATCH (p:P) RETURN count(*) AS n")));
    case "count on empty table returns one row with 0" (fun () ->
        let t = run_table Graph.empty "MATCH (n) RETURN count(*) AS n" in
        check_rows "one row" 1 t;
        check_value "zero" (vint 0) (first_cell t));
    case "implicit grouping by non-aggregate items" (fun () ->
        let t =
          run_table people
            "MATCH (p:P) RETURN p.dept AS d, count(*) AS n, sum(p.salary) AS s \
             ORDER BY d"
        in
        check_rows "two groups" 2 t;
        Alcotest.(check (list value_testable)) "counts" [ vint 2; vint 1 ] (ints t "n");
        Alcotest.(check (list value_testable)) "sums" [ vint 30; vint 30 ] (ints t "s"));
    case "count(expr) skips nulls, count(*) does not" (fun () ->
        let g = graph_of "CREATE (:P {x: 1}), (:P)" in
        let t = run_table g "MATCH (p:P) RETURN count(p.x) AS cx, count(*) AS call" in
        let row = List.hd (Table.rows t) in
        check_value "count x" (vint 1) (Record.find row "cx");
        check_value "count star" (vint 2) (Record.find row "call"));
    case "min max avg collect" (fun () ->
        let t =
          run_table people
            "MATCH (p:P) RETURN min(p.salary) AS mn, max(p.salary) AS mx, \
             avg(p.salary) AS av, collect(p.name) AS names"
        in
        let row = List.hd (Table.rows t) in
        check_value "min" (vint 10) (Record.find row "mn");
        check_value "max" (vint 30) (Record.find row "mx");
        check_value "avg" (Value.Float 20.0) (Record.find row "av");
        check_value "collect" (vlist [ vstr "a"; vstr "b"; vstr "c" ])
          (Record.find row "names"));
    case "aggregates of an empty group" (fun () ->
        let t =
          run_table Graph.empty
            "MATCH (n) RETURN sum(n.x) AS s, min(n.x) AS mn, collect(n) AS c"
        in
        let row = List.hd (Table.rows t) in
        check_value "sum" (vint 0) (Record.find row "s");
        check_value "min" vnull (Record.find row "mn");
        check_value "collect" (vlist []) (Record.find row "c"));
    case "DISTINCT inside aggregates" (fun () ->
        let t = run_table people "MATCH (p:P) RETURN count(DISTINCT p.dept) AS n" in
        check_value "two depts" (vint 2) (first_cell t));
    case "aggregate combined with arithmetic" (fun () ->
        let t = run_table people "MATCH (p:P) RETURN count(*) * 10 AS n" in
        check_value "scaled" (vint 30) (first_cell t));
    case "ORDER BY an aggregate" (fun () ->
        let t =
          run_table people
            "MATCH (p:P) RETURN p.dept AS d, count(*) AS n ORDER BY count(*) DESC"
        in
        Alcotest.(check (list value_testable)) "depts" [ vstr "x"; vstr "y" ]
          (ints t "d"));
    case "aggregate outside RETURN/WITH is an error" (fun () ->
        match run_err people "MATCH (p:P) WHERE count(*) > 1 RETURN p" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
  ]

let unwind_union_tests =
  [
    case "UNWIND expands lists into rows" (fun () ->
        let t = run_table Graph.empty "UNWIND [1, 2, 3] AS x RETURN x" in
        Alcotest.(check (list value_testable)) "rows" [ vint 1; vint 2; vint 3 ]
          (ints t "x"));
    case "UNWIND null produces no rows" (fun () ->
        check_rows "none" 0 (run_table Graph.empty "UNWIND null AS x RETURN x"));
    case "UNWIND keeps outer bindings" (fun () ->
        let t =
          run_table Graph.empty
            "UNWIND [1, 2] AS x UNWIND ['a', 'b'] AS y RETURN x, y"
        in
        check_rows "cartesian" 4 t);
    case "UNION deduplicates" (fun () ->
        let t =
          run_table Graph.empty "RETURN 1 AS x UNION RETURN 1 AS x UNION RETURN 2 AS x"
        in
        check_rows "two" 2 t);
    case "UNION ALL keeps duplicates" (fun () ->
        let t = run_table Graph.empty "RETURN 1 AS x UNION ALL RETURN 1 AS x" in
        check_rows "two" 2 t);
    case "UNION requires equal columns" (fun () ->
        match run_err Graph.empty "RETURN 1 AS x UNION RETURN 2 AS y" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
    case "UNION of updating queries applies both sides" (fun () ->
        (* updates are side-effects threaded left to right (Section 8.2) *)
        let o =
          run Graph.empty
            "CREATE (n:A) RETURN 1 AS x UNION CREATE (m:B) RETURN 2 AS x"
        in
        Alcotest.(check int) "both created" 2 (Graph.node_count o.Api.r_graph);
        check_rows "rows unioned" 2 o.Api.r_table);
  ]

let suite = projection_tests @ aggregation_tests @ unwind_union_tests

let extra_tests =
  [
    case "ORDER BY multiple keys with stable ties" (fun () ->
        let g =
          graph_of
            "CREATE (:R {a: 1, b: 2}), (:R {a: 1, b: 1}), (:R {a: 0, b: 9})"
        in
        let t =
          run_table g "MATCH (r:R) RETURN r.a AS a, r.b AS b ORDER BY a, b DESC"
        in
        Alcotest.(check (list value_testable)) "a then b desc"
          [ vint 9; vint 2; vint 1 ] (ints t "b"));
    case "collect then UNWIND restores the bag" (fun () ->
        let t =
          run_table Graph.empty
            "UNWIND [3, 1, 2, 1] AS x WITH collect(x) AS xs UNWIND xs AS y \
             RETURN y"
        in
        Alcotest.(check (list value_testable)) "bag kept"
          [ vint 3; vint 1; vint 2; vint 1 ] (ints t "y"));
    case "grouping key may be a computed expression" (fun () ->
        let t =
          run_table Graph.empty
            "UNWIND [1, 2, 3, 4, 5] AS x RETURN x % 2 AS parity, count(*) AS n \
             ORDER BY parity"
        in
        Alcotest.(check (list value_testable)) "counts" [ vint 2; vint 3 ]
          (ints t "n"));
    case "SKIP/LIMIT accept parameters" (fun () ->
        let config = Cypher_core.Config.(with_param "k" (vint 1) revised) in
        let t =
          run_table ~config Graph.empty
            "UNWIND [10, 20, 30] AS x RETURN x ORDER BY x SKIP $k LIMIT $k"
        in
        Alcotest.(check (list value_testable)) "window" [ vint 20 ] (ints t "x"));
    case "DISTINCT then aggregation downstream" (fun () ->
        let t =
          run_table Graph.empty
            "UNWIND [1, 1, 2, 2, 3] AS x WITH DISTINCT x RETURN count(*) AS n"
        in
        check_value "three" (vint 3) (first_cell t));
  ]

(* grouping keys are equal exactly when DISTINCT's total order says so *)
let grouping_key_tests =
  let groups src =
    List.map
      (fun row -> Cypher_table.Record.find row "n")
      (Cypher_table.Table.rows (run_table Graph.empty src))
  in
  [
    case "distinct floats form distinct groups" (fun () ->
        List.iter
          (fun list ->
            let src = Printf.sprintf "UNWIND %s AS x RETURN x, count(*) AS n" list in
            Alcotest.(check (list value_testable)) list [ vint 1; vint 1 ] (groups src);
            check_rows (list ^ " DISTINCT") 2
              (run_table Graph.empty (Printf.sprintf "UNWIND %s AS x RETURN DISTINCT x" list)))
          [ "[0.1234561, 0.1234562]"; "[123456789.5, 123456789.25]" ]);
    case "numerically equal keys form one group" (fun () ->
        List.iter
          (fun (list, first) ->
            let t =
              run_table Graph.empty
                (Printf.sprintf "UNWIND %s AS x RETURN x, count(*) AS n" list)
            in
            check_rows list 1 t;
            check_value (list ^ " count") (vint 2) (List.hd (column t "n"));
            check_value (list ^ " first key") first (List.hd (column t "x"));
            check_rows (list ^ " DISTINCT") 1
              (run_table Graph.empty (Printf.sprintf "UNWIND %s AS x RETURN DISTINCT x" list)))
          [ ("[1, 1.0]", vint 1); ("[0.0, -0.0]", Value.Float 0.0); ("[[1], [1.0]]", vlist [ vint 1 ]) ]);
    case "groups keep first-occurrence order" (fun () ->
        Alcotest.(check (list value_testable)) "order"
          [ vstr "b"; vstr "a"; vint 2 ]
          (column
             (run_table Graph.empty
                "UNWIND ['b', 'a', 2, 'b', 2.0, 'a'] AS x RETURN x, count(*) AS n")
             "x"));
  ]

let suite = suite @ extra_tests @ grouping_key_tests

(* aggregation by accumulators: each rule the single pass must keep *)
let accumulator_tests =
  let one src name = Record.find (List.hd (Table.rows (run_table Graph.empty src))) name in
  [
    case "sum folds from 0 in row order, so mixed numbers end as a float" (fun () ->
        check_value "sum" (Value.Float 3.5) (one "UNWIND [1, 2.5] AS x RETURN sum(x) AS s" "s");
        check_value "int sum" (vint 6) (one "UNWIND [1, 2, 3] AS x RETURN sum(x) AS s" "s"));
    case "avg is the sum over the count of non-null values" (fun () ->
        check_value "avg" (Value.Float 2.0)
          (one "UNWIND [1, null, 3] AS x RETURN avg(x) AS a" "a"));
    case "min and max keep the first of equal extremes" (fun () ->
        check_value "min" (vint 1) (one "UNWIND [2, 1, 1.0] AS x RETURN min(x) AS m" "m");
        check_value "max" (Value.Float 2.0)
          (one "UNWIND [1, 2.0, 2] AS x RETURN max(x) AS m" "m"));
    case "collect keeps row order and drops nulls" (fun () ->
        check_value "collect" (vlist [ vint 3; vint 1; vint 3 ])
          (one "UNWIND [3, null, 1, 3] AS x RETURN collect(x) AS c" "c"));
    case "DISTINCT aggregates fold their value set in sorted order" (fun () ->
        check_value "collect" (vlist [ vint 1; vint 2; vint 3 ])
          (one "UNWIND [3, 1, 3, 2] AS x RETURN collect(DISTINCT x) AS c" "c");
        check_value "count" (vint 3)
          (one "UNWIND [3, 1, 3, 2, null] AS x RETURN count(DISTINCT x) AS c" "c");
        check_value "sum" (vint 6)
          (one "UNWIND [3, 1, 3, 2] AS x RETURN sum(DISTINCT x) AS s" "s"));
    case "a DISTINCT aggregate keeps the first of numerically equal values"
      (fun () ->
        check_value "int first" (vlist [ vint 1 ])
          (one "UNWIND [1, 1.0, 1] AS x RETURN collect(DISTINCT x) AS c" "c");
        check_value "float first" (vlist [ Value.Float 1.0 ])
          (one "UNWIND [1.0, 1, 1] AS x RETURN collect(DISTINCT x) AS c" "c"));
    case "aggregates inside expressions" (fun () ->
        check_value "count + 1" (vint 4)
          (one "UNWIND [1, 2, 3] AS x RETURN count(*) + 1 AS n" "n");
        check_value "size(collect)" (vint 2)
          (one "UNWIND [1, null, 3] AS x RETURN size(collect(x)) AS n" "n"));
    case "a global group exists over no rows; keyed groups do not" (fun () ->
        let t =
          run_table people
            "MATCH (p:Nope) RETURN count(*) AS n, collect(p) AS c, avg(p.x) AS a"
        in
        check_rows "one row" 1 t;
        check_value "count" (vint 0) (first_cell t);
        check_rows "no groups" 0
          (run_table people "MATCH (p:Nope) RETURN p.dept AS d, count(*) AS n"));
    case "groups come out in first-occurrence order with their first row"
      (fun () ->
        let t =
          run_table Graph.empty
            "UNWIND [[2, 'a'], [1, 'b'], [2, 'c']] AS x\n\
             RETURN x[0] AS k, count(*) AS n, collect(x[1]) AS c"
        in
        Alcotest.(check (list value_testable)) "keys" [ vint 2; vint 1 ] (ints t "k");
        Alcotest.(check (list value_testable)) "collected"
          [ vlist [ vstr "a"; vstr "c" ]; vlist [ vstr "b" ] ]
          (ints t "c"));
    case "an aggregate used only by ORDER BY is accumulated too" (fun () ->
        let t =
          run_table people
            "MATCH (p:P) RETURN p.dept AS d, count(*) AS n ORDER BY sum(p.salary) DESC"
        in
        Alcotest.(check (list value_testable)) "by salary" [ vstr "x"; vstr "y" ]
          (ints t "d"));
  ]

(* ORDER BY evaluates each row's keys lazily, at most once *)
let sort_key_tests =
  [
    case "a single row never evaluates its sort key" (fun () ->
        check_rows "one row" 1 (run_table Graph.empty "RETURN 1 AS x ORDER BY 1 / 0"));
    case "two rows do evaluate it" (fun () ->
        match run_err Graph.empty "UNWIND [1, 2] AS x RETURN x ORDER BY 1 / 0" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
    case "a later key is evaluated only on ties of the earlier ones" (fun () ->
        let t = run_table Graph.empty "UNWIND [2, 1] AS x RETURN x ORDER BY x, 1 / 0" in
        Alcotest.(check (list value_testable)) "sorted" [ vint 1; vint 2 ] (ints t "x");
        match run_err Graph.empty "UNWIND [1, 1] AS x RETURN x ORDER BY x, 1 / 0" with
        | Cypher_core.Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Cypher_core.Errors.to_string e));
  ]

(* MATCH ... WHERE folded straight into an aggregating projection gives
   exactly the clause-by-clause (PROFILE) result *)
let fused_tests =
  let same src =
    let run prefix =
      match
        Api.run_string ~config:Cypher_core.Config.revised people (prefix ^ src)
      with
      | Ok r -> Table.to_string r.Api.r_table
      | Error e -> Alcotest.failf "%s: %s" src (Cypher_core.Errors.to_string e)
    in
    Alcotest.(check string) src (run "PROFILE ") (run "")
  in
  [
    case "fused and materialising runs agree" (fun () ->
        List.iter same
          [
            "MATCH (p:P) RETURN count(*) AS n";
            "MATCH (p:P) WHERE p.salary > 10 RETURN count(*) AS n";
            "MATCH (p:P) WHERE p.salary > 10 RETURN p.dept AS d, count(*) AS n \
             ORDER BY n DESC, d LIMIT 5";
            "MATCH (p:P), (q:P) WHERE p.dept = q.dept RETURN p.name AS a, \
             collect(q.name) AS c ORDER BY a";
            "MATCH (p:P) WITH p.dept AS d, sum(p.salary) AS s RETURN d, s ORDER BY d";
            "OPTIONAL MATCH (p:Nope) RETURN count(*) AS n, count(p) AS m";
            "MATCH (p:P) OPTIONAL MATCH (p)-[:R]->(q) RETURN p.name AS a, \
             count(q) AS n ORDER BY a";
            "UNWIND [1, 2] AS x MATCH (p:P) WHERE p.salary > x * 10 RETURN x, \
             count(*) AS n ORDER BY x";
          ]);
  ]

let suite = suite @ accumulator_tests @ sort_key_tests @ fused_tests
