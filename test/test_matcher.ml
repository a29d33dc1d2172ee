(** Pattern matching: embeddings, relationship isomorphism, direction,
    variable-length paths, bound variables, OPTIONAL MATCH. *)

open Cypher_graph
open Test_util
module Config = Cypher_core.Config
module Api = Cypher_core.Api

let chain = graph_of "CREATE (:A {k: 1})-[:T]->(:B {k: 2})-[:T]->(:C {k: 3})"

(* A graph exercising every corner the counting traversal specialises
   over: a directed cycle, a self-loop, parallel relationships, and a
   relationship property. *)
let fusion_graph config =
  List.fold_left
    (fun g src ->
      match Api.run_string ~config g src with
      | Error e -> Alcotest.failf "%s: %s" src (Cypher_core.Errors.to_string e)
      | Ok o -> o.Api.r_graph)
    Graph.empty
    [
      "CREATE (a:User {id: 1})-[:KNOWS {since: 2001}]->(b:User {id: \
       2})-[:KNOWS]->(c:User {id: 3})-[:KNOWS]->(a)";
      "MATCH (a:User {id: 1}) CREATE (a)-[:KNOWS]->(a)";
      "MATCH (a:User {id: 1}), (b:User {id: 2}) CREATE (a)-[:LIKES]->(b), \
       (a)-[:LIKES]->(b)";
    ]

let fusion_queries =
  [
    "MATCH (a:User)-[:KNOWS]->(b) RETURN count(*) AS n";
    (* cyclic: the far end must rebind to the already-bound [a] *)
    "MATCH (a)-[:KNOWS]->(a) RETURN count(*) AS loops";
    (* two patterns: relationship isomorphism spans the tuple *)
    "MATCH (a)-[r]->(b), (c)-[s]->(d) RETURN count(*) AS pairs";
    "MATCH (a)-[:KNOWS*1..2]->(b) RETURN count(*) AS n";
    (* undirected enumeration, self-loop taken once *)
    "MATCH (a)-[:KNOWS]-(b) RETURN count(*) AS n";
    (* relationship property map: the counting leaf must evaluate it *)
    "MATCH (a)-[:KNOWS {since: 2001}]->(b) RETURN count(*) AS n";
    (* a WITH-driven MATCH: one count per driving row, summed *)
    "MATCH (a:User) WITH a MATCH (a)-[:KNOWS]->(b) RETURN count(*) AS n";
    "MATCH (missing:Nope) RETURN count(*) AS n";
  ]

let fusion_configs =
  [
    ("revised planner", Config.revised);
    ("revised naive", Config.with_planner Config.Off Config.revised);
    ("cypher9", Config.cypher9);
  ]

let suite =
  [
    case "node matching filters by label and property" (fun () ->
        check_rows "by label" 1 (run_table chain "MATCH (n:B) RETURN n");
        check_rows "by property" 1 (run_table chain "MATCH (n {k: 2}) RETURN n");
        check_rows "label and property mismatch" 0
          (run_table chain "MATCH (n:B {k: 3}) RETURN n");
        check_rows "unlabeled matches everything" 3
          (run_table chain "MATCH (n) RETURN n"));
    case "null-valued pattern properties never match" (fun () ->
        check_rows "null" 0 (run_table chain "MATCH (n {k: null}) RETURN n"));
    case "direction is respected" (fun () ->
        check_rows "out" 2 (run_table chain "MATCH (a)-[:T]->(b) RETURN a");
        check_rows "in" 2 (run_table chain "MATCH (a)<-[:T]-(b) RETURN a");
        check_rows "undirected counts both ends" 4
          (run_table chain "MATCH (a)-[:T]-(b) RETURN a"));
    case "type filtering" (fun () ->
        let g = graph_of "CREATE (:A)-[:X]->(:B), (:A)-[:Y]->(:B)" in
        check_rows "x only" 1 (run_table g "MATCH ()-[r:X]->() RETURN r");
        check_rows "alternative" 2 (run_table g "MATCH ()-[r:X|Y]->() RETURN r");
        check_rows "any" 2 (run_table g "MATCH ()-[r]->() RETURN r"));
    case "two-step pattern" (fun () ->
        check_rows "path" 1 (run_table chain "MATCH (a:A)-[:T]->(b)-[:T]->(c:C) RETURN a"));
    case "relationship isomorphism within a pattern" (fun () ->
        (* a single relationship cannot play two pattern positions *)
        let g = graph_of "CREATE (:A)-[:T]->(:B)" in
        check_rows "needs two distinct rels" 0
          (run_table g "MATCH (a)-[r1:T]->(b), (c)-[r2:T]->(d) RETURN a");
        let g2 = graph_of "CREATE (:A)-[:T]->(:B), (:A)-[:T]->(:B)" in
        check_rows "two rels give two assignments" 2
          (run_table g2 "MATCH (a)-[r1:T]->(b), (c)-[r2:T]->(d) RETURN a"));
    case "undirected traversal cannot reuse one edge both ways" (fun () ->
        let g = graph_of "CREATE (a:A)-[:T]->(a2:A)" in
        check_rows "no double traversal" 0
          (run_table g "MATCH (x)-[:T]-(y)-[:T]-(z) RETURN x"));
    case "the paper's loop example is finite" (fun () ->
        (* MATCH (v)-[*]->(v) on a single loop: edge-distinctness bounds
           the walk (Section 2) *)
        let g = graph_of "CREATE (v:V)-[:T]->(v2:V), (v2)-[:T]->(v)" in
        ignore g;
        let loop = graph_of "CREATE (v:V) WITH v CREATE (v)-[:T]->(v)" in
        check_rows "single loop traversed once" 1
          (run_table loop "MATCH (v)-[*]->(v) RETURN v"));
    case "variable-length ranges" (fun () ->
        check_rows "*1..2 from a" 2
          (run_table chain "MATCH (a:A)-[:T*1..2]->(b) RETURN b");
        check_rows "*2 exactly" 1 (run_table chain "MATCH (a:A)-[:T*2]->(b) RETURN b");
        check_rows "*0.. includes the node itself" 3
          (run_table chain "MATCH (a:A)-[:T*0..]->(b) RETURN b"));
    case "variable-length binds the relationship list" (fun () ->
        let t = run_table chain "MATCH (a:A)-[rs:T*2]->(c) RETURN size(rs) AS n" in
        check_value "two rels" (vint 2) (first_cell t));
    case "named paths expose nodes and relationships" (fun () ->
        let t =
          run_table chain
            "MATCH p = (a:A)-[:T]->(b)-[:T]->(c) RETURN size(nodes(p)) AS n, \
             size(relationships(p)) AS r, length(p) AS l"
        in
        let row = List.hd (Cypher_table.Table.rows t) in
        check_value "nodes" (vint 3) (Cypher_table.Record.find row "n");
        check_value "rels" (vint 2) (Cypher_table.Record.find row "r");
        check_value "length" (vint 2) (Cypher_table.Record.find row "l"));
    case "bound variables anchor subsequent matches" (fun () ->
        check_rows "anchored" 1
          (run_table chain "MATCH (a:A) MATCH (a)-[:T]->(b) RETURN b"));
    case "repeated variable within a pattern forces equality" (fun () ->
        let g = graph_of "CREATE (a:A)-[:T]->(:B)-[:T]->(a2:A)" in
        ignore g;
        let loop = graph_of "CREATE (a:A) WITH a CREATE (a)-[:T]->(:B) WITH a MATCH (b:B) CREATE (b)-[:T]->(a)" in
        check_rows "cycle found" 1
          (run_table loop "MATCH (x:A)-[:T]->(:B)-[:T]->(x) RETURN x"));
    case "property predicates may reference earlier bindings" (fun () ->
        let g = graph_of "CREATE (:A {k: 1})-[:T]->(:B {k: 1}), (:A {k: 2})-[:T]->(:B {k: 9})" in
        check_rows "correlated" 1
          (run_table g "MATCH (a:A) MATCH (b:B {k: a.k}) RETURN b"));
    case "multiple patterns form a join" (fun () ->
        check_rows "cartesian product of label matches" 1
          (run_table chain "MATCH (a:A), (c:C), (b:B) MATCH (a)-[:T]->(x) RETURN x");
        (* two B-labelled nodes → cartesian doubles the rows *)
        let g = graph_of "CREATE (:A), (:B), (:B)" in
        check_rows "cartesian" 2 (run_table g "MATCH (a:A), (b:B) RETURN a, b"));
    case "optional match pads with nulls" (fun () ->
        let t = run_table chain "MATCH (c:C) OPTIONAL MATCH (c)-[:T]->(x) RETURN c, x" in
        check_rows "one row" 1 t;
        check_value "x is null" vnull
          (Cypher_table.Record.find (List.hd (Cypher_table.Table.rows t)) "x"));
    case "optional match keeps matches when they exist" (fun () ->
        let t = run_table chain "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(x) RETURN x" in
        check_rows "one row" 1 t;
        Alcotest.(check bool) "x bound" true
          (Cypher_table.Record.find (List.hd (Cypher_table.Table.rows t)) "x" <> vnull));
    case "optional match with where" (fun () ->
        let t =
          run_table chain
            "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(x) WHERE x.k > 99 RETURN x"
        in
        check_value "filtered to null" vnull (first_cell t));
    case "where filters with ternary logic" (fun () ->
        let g = graph_of "CREATE (:P {age: 20}), (:P {age: 30}), (:P)" in
        (* the ageless node gives null > 25 = unknown, dropped *)
        check_rows "only true survives" 1
          (run_table g "MATCH (p:P) WHERE p.age > 25 RETURN p"));
    case "match on empty graph yields nothing" (fun () ->
        check_rows "empty" 0 (run_table Graph.empty "MATCH (n) RETURN n"));
    case "self-loop matching" (fun () ->
        let g = graph_of "CREATE (v:V) WITH v CREATE (v)-[:T]->(v)" in
        check_rows "directed" 1 (run_table g "MATCH (a)-[:T]->(a) RETURN a");
        check_rows "undirected self-loop matches once" 1
          (run_table g "MATCH (a)-[:T]-(b) RETURN a"));
    case "multi-pattern fold covers one, two and three patterns" (fun () ->
        (* the pattern-tuple fold recurses pattern by pattern: 1..3
           comma patterns, shared and disjoint variables, must keep
           producing exact cross-product row counts *)
        check_rows "one" 3 (run_table chain "MATCH (n) RETURN n");
        check_rows "two disjoint" 9
          (run_table chain "MATCH (n), (m) RETURN n, m");
        check_rows "three disjoint" 27
          (run_table chain "MATCH (n), (m), (o) RETURN n");
        check_rows "three with shared variables" 2
          (run_table chain "MATCH (a)-[:T]->(b), (b), (a) RETURN a, b"));
    case "fused count( * ) agrees with the unfused PROFILE path"
      (fun () ->
        (* PROFILE disables the fusion, so the same statement runs the
           materialising pipeline: rows, then the aggregate projection *)
        List.iter
          (fun (cname, config) ->
            let g = fusion_graph config in
            List.iter
              (fun q ->
                let fused =
                  match Api.run_string ~config g q with
                  | Error e ->
                      Alcotest.failf "%s [%s]: %s" q cname
                        (Cypher_core.Errors.to_string e)
                  | Ok o -> Cypher_table.Table.to_string o.Api.r_table
                in
                let unfused =
                  match Api.run_string ~config g ("PROFILE " ^ q) with
                  | Error e ->
                      Alcotest.failf "PROFILE %s [%s]: %s" q cname
                        (Cypher_core.Errors.to_string e)
                  | Ok r -> Cypher_table.Table.to_string r.Api.r_table
                in
                Alcotest.(check string)
                  (Printf.sprintf "%s [%s]" q cname)
                  unfused fused)
              fusion_queries)
          fusion_configs)
  ]

(* ------------------------------------------------------------------ *)
(* Plan-cache hits and multi-domain reads                             *)
(* ------------------------------------------------------------------ *)

let table_of config g q =
  match Api.run_string ~config g q with
  | Error e -> Alcotest.failf "%s: %s" q (Cypher_core.Errors.to_string e)
  | Ok o -> Cypher_table.Table.to_string o.Api.r_table

(* one case per counting query: the fused count served from the plan
   cache, with the match plans memoized by the first run, prints the
   first run's table *)
let cached_fusion_tests =
  List.map
    (fun q ->
      case ("fused count( * ) on a plan-cache hit prints the first-run table: " ^ q)
        (fun () ->
          List.iter
            (fun (cname, config) ->
              let g = fusion_graph config in
              let first = table_of config g q in
              let hit =
                Cypher_table.Table.to_string (run_cached ~config g q).Api.r_table
              in
              Alcotest.(check string) (Printf.sprintf "%s [%s]" q cname) first hit)
            fusion_configs))
    fusion_queries

(* reads, updates and MERGE over a few users, with every result table
   and update counter recorded *)
let workload =
  [
    "CREATE (:User {id: 1, name: 'ada'})-[:KNOWS {since: 2001}]->(:User \
     {id: 2, name: 'bob'})";
    "CREATE (:User {id: 3})";
    "MATCH (a:User)-[k:KNOWS]->(b:User) RETURN a.name, k.since, b.name";
    "MATCH (a:User) WHERE a.id % 2 = 1 SET a:Odd RETURN count(*) AS n";
    "MATCH (a:Odd) RETURN a.id ORDER BY a.id";
    "MERGE ALL (:User {id: 2})-[:KNOWS]->(:User {id: 3})";
    "MATCH (a)-[r]-(b) RETURN count(*) AS n";
    "MATCH (a:User) DETACH DELETE a RETURN count(*) AS n";
  ]

let run_workload config =
  let outs = Buffer.create 256 in
  let g =
    List.fold_left
      (fun g src ->
        match Api.run_string ~config g src with
        | Error e -> Alcotest.failf "%s: %s" src (Cypher_core.Errors.to_string e)
        | Ok r ->
            Buffer.add_string outs (Cypher_table.Table.to_string r.Api.r_table);
            Buffer.add_string outs (Cypher_core.Stats.to_string r.Api.r_stats);
            Buffer.add_char outs '\n';
            r.Api.r_graph)
      Graph.empty workload
  in
  (Graph.to_string g, Buffer.contents outs)

(* [n] source nodes, each with one [:T] relationship to a target *)
let pairs_graph n =
  Test_util.graph_of
    (Printf.sprintf
       "UNWIND range(1, %d) AS i CREATE (:S {k: i})-[:T]->(:D {k: i})" n)

let domain_tests =
  [
    case "workload is byte-identical on a reader-pool worker" (fun () ->
        let gs, os = run_workload Config.revised in
        let gp, op = on_worker (fun () -> run_workload Config.revised) in
        Alcotest.(check string) "tables and counters" os op;
        Alcotest.(check string) "final graph" gs gp);
    case "domains matching one shared graph value agree" (fun () ->
        (* the server hands one graph value to many domains at once;
           reading it must not race *)
        for round = 1 to 10 do
          let g = pairs_graph (20 + round) in
          let q = "MATCH (:S)-[:T]->(d:D) RETURN count(d) AS c, sum(d.k) AS s" in
          let expected = table_of Config.revised g q in
          let results =
            List.map Domain.join
              (List.init 4 (fun _ -> Domain.spawn (fun () -> table_of Config.revised g q)))
          in
          List.iteri
            (fun i r ->
              Alcotest.(check string)
                (Printf.sprintf "round %d domain %d" round i)
                expected r)
            results;
          Alcotest.(check bool)
            (Printf.sprintf "round %d count present" round)
            true
            (contains_substring expected (string_of_int (20 + round)))
        done);
    case "updates on a shared graph value stay private to each domain"
      (fun () ->
        let base = pairs_graph 10 in
        let before = Graph.to_string base in
        let count g =
          table_of Config.revised g "MATCH (n) RETURN count(n) AS c"
        in
        let results =
          List.map Domain.join
            (List.init 4 (fun k ->
                 Domain.spawn (fun () ->
                     let q =
                       Printf.sprintf
                         "MATCH (s:S) SET s.k = %d WITH count(*) AS set \
                          UNWIND range(1, %d) AS i CREATE (:N {i: i})"
                         (-k) (k + 1)
                     in
                     match Api.run_string ~config:Config.revised base q with
                     | Error e -> Error (Cypher_core.Errors.to_string e)
                     | Ok o -> Ok (count o.Api.r_graph))))
        in
        List.iteri
          (fun k r ->
            (* domain k created k+1 nodes on top of the base's 20 *)
            Alcotest.(check (result string string))
              (Printf.sprintf "domain %d sees its own update" k)
              (Ok (Printf.sprintf "| c |\n| %d |" (21 + k)))
              r)
          results;
        Alcotest.(check string) "shared base unchanged" before
          (Graph.to_string base);
        Alcotest.(check string) "base still counts 20" "| c |\n| 20 |" (count base));
  ]

let suite = suite @ cached_fusion_tests @ domain_tests

(* Promotion guard: the streaming reads keep their per-query transients
   out of the major heap.  On a generated graph of 10⁴ persons, the
   words each read promotes (Gc.quick_stat deltas) must stay under a
   fifth of what its materialising reference promotes. *)
let promotion_graph =
  lazy
    (let n = 10_000 in
     let rng = Random.State.make [| 18 |] in
     let g = ref Graph.empty in
     let ids =
       Array.init n (fun i ->
           let props =
             Props.of_list
               [
                 ("pid", Value.Int i);
                 ("age", Value.Int (18 + Random.State.int rng 60));
                 ("city", Value.String (Printf.sprintf "c%d" (Random.State.int rng 12)));
               ]
           in
           let id, g' = Graph.create_node ~labels:[ "Person" ] ~props !g in
           g := g';
           id)
     in
     Array.iter
       (fun src ->
         for _ = 1 to 4 do
           let tgt = ids.(Random.State.int rng n) in
           g := snd (Graph.create_rel ~src ~tgt ~r_type:"KNOWS" ~props:Props.empty !g)
         done)
       ids;
     (!g, ids, rng))

let promoted f =
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  f ();
  (Gc.quick_stat ()).Gc.promoted_words -. before

let promotion_tests =
  [
    case "scan + WHERE + grouped count promotes under a fifth of PROFILE"
      (fun () ->
        let g, _, _ = Lazy.force promotion_graph in
        let q =
          "MATCH (a:Person) WHERE a.age > 40 RETURN a.city AS city, count(*) AS n \
           ORDER BY n DESC, city LIMIT 5"
        in
        let run src () =
          for _ = 1 to 10 do
            match Api.run_string g src with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Cypher_core.Errors.to_string e)
          done
        in
        let materialised = promoted (run ("PROFILE " ^ q)) in
        let fused = promoted (run q) in
        if not (materialised > 0. && fused *. 5. < materialised) then
          Alcotest.failf "fused promoted %.0f words, PROFILE %.0f" fused materialised);
    case "bidirectional shortestPath promotes under a fifth of the reference"
      (fun () ->
        let g, ids, rng = Lazy.force promotion_graph in
        let pattern =
          match
            Cypher_parser.Parser.parse_string
              "MATCH (a), (b) RETURN shortestPath((a)-[:KNOWS*..6]->(b)) AS p"
          with
          | Ok { Cypher_ast.Ast.clauses = [ _; Cypher_ast.Ast.Return proj ]; _ }
            -> (
              match proj.Cypher_ast.Ast.proj_items with
              | [ { item_expr = Cypher_ast.Ast.Shortest_path { sp_pattern; _ }; _ } ] ->
                  sp_pattern
              | _ -> Alcotest.fail "unexpected projection")
          | _ -> Alcotest.fail "unexpected parse"
        in
        let pairs =
          List.init 40 (fun _ ->
              let pick () = Value.Node ids.(Random.State.int rng (Array.length ids)) in
              Cypher_eval.Ctx.make g
                (Cypher_table.Record.of_list [ ("a", pick ()); ("b", pick ()) ]))
        in
        let run impl () =
          List.iter (fun ctx -> ignore (impl ctx ~all:false pattern)) pairs
        in
        let reference = promoted (run Cypher_paper.Reference.shortest_paths) in
        let bidirectional = promoted (run Cypher_matcher.Matcher.shortest_paths) in
        if not (reference > 0. && bidirectional *. 5. < reference) then
          Alcotest.failf "bidirectional promoted %.0f words, reference %.0f"
            bidirectional reference);
  ]

let suite = suite @ promotion_tests
