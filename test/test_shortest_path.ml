(** shortestPath / allShortestPaths: BFS between bound endpoints. *)

open Test_util
module Errors = Cypher_core.Errors

(* a diamond with a long detour:
   a -> b1 -> c, a -> b2 -> c (two 2-hop routes), a -> d -> e -> c (3 hops),
   plus a direct back-edge c -> a *)
let g =
  graph_of
    "CREATE (a:N {name: 'a'}), (b1:N {name: 'b1'}), (b2:N {name: 'b2'}),\n\
    \       (c:N {name: 'c'}), (d:N {name: 'd'}), (e:N {name: 'e'})\n\
     WITH a, b1, b2, c, d, e\n\
     CREATE (a)-[:T]->(b1), (b1)-[:T]->(c), (a)-[:T]->(b2), (b2)-[:T]->(c),\n\
    \       (a)-[:T]->(d), (d)-[:T]->(e), (e)-[:T]->(c), (c)-[:T]->(a)"

(* --- differential against the one-sided reference BFS -------------- *)

module Ast = Cypher_ast.Ast
module Value = Cypher_graph.Value
module Graph = Cypher_graph.Graph
module Record = Cypher_table.Record
module Ctx = Cypher_eval.Ctx
module Matcher = Cypher_matcher.Matcher
module Reference = Cypher_paper.Reference

(* a random small multigraph (self-loops and parallel edges included),
   two endpoints drawn from it — often the same node — and a step *)
type sp_case = {
  nodes : int;
  edges : (int * string * int) list;
  src : int;
  tgt : int;
  dir : Ast.direction;
  types : string list;
  range : int option * int option;
}

let gen_sp_case =
  QCheck.Gen.(
    int_range 1 9 >>= fun nodes ->
    list_size (int_bound 22)
      (triple (int_bound (nodes - 1)) (oneofl [ "T"; "U" ]) (int_bound (nodes - 1)))
    >>= fun edges ->
    int_bound (nodes - 1) >>= fun src ->
    frequency [ (1, return src); (4, int_bound (nodes - 1)) ] >>= fun tgt ->
    oneofl [ Ast.Out; Ast.In; Ast.Undirected ] >>= fun dir ->
    oneofl [ []; [ "T" ]; [ "T"; "U" ] ] >>= fun types ->
    oneofl
      [ (None, None); (Some 0, None); (Some 1, Some 3); (Some 2, None);
        (Some 2, Some 3); (Some 0, Some 0); (None, Some 1); (Some 3, Some 5) ]
    >>= fun range -> return { nodes; edges; src; tgt; dir; types; range })

let print_sp_case c =
  Printf.sprintf "%d nodes, edges [%s], %d -> %d, dir %s, types [%s], range %s..%s"
    c.nodes
    (String.concat "; "
       (List.map (fun (a, t, b) -> Printf.sprintf "%d-%s->%d" a t b) c.edges))
    c.src c.tgt
    (match c.dir with Ast.Out -> "out" | Ast.In -> "in" | Ast.Undirected -> "both")
    (String.concat "|" c.types)
    (Option.fold ~none:"" ~some:string_of_int (fst c.range))
    (Option.fold ~none:"" ~some:string_of_int (snd c.range))

(* both implementations on one case: the graph, the pattern, and
   [run impl ~all] *)
let sp_setup c =
  let g = Cypher_paper.Fixtures.build (List.init c.nodes (fun _ -> ([], []))) c.edges in
  let p =
    Ast.path
      (Ast.node ~var:"a" ())
      [ (Ast.rel ~types:c.types ~dir:c.dir ~range:c.range (), Ast.node ~var:"b" ()) ]
  in
  let ctx =
    Ctx.make g (Record.of_list [ ("a", Value.Node c.src); ("b", Value.Node c.tgt) ])
  in
  (g, fun impl ~all -> impl ctx ~all p)

(* [path] is a walk from [src] to [tgt] along relationships the step
   admits, each used once, of a length inside the range *)
let valid_walk g c (path : Value.path) =
  let lo = Option.value ~default:1 (fst c.range) in
  let len = List.length path.Value.path_rels in
  let rec steps nodes rels =
    match (nodes, rels) with
    | [ last ], [] -> last = c.tgt
    | a :: (b :: _ as nodes), rid :: rels ->
        let r = Graph.rel_exn g rid in
        (c.types = [] || List.mem r.Graph.r_type c.types)
        && (match c.dir with
           | Ast.Out -> r.Graph.src = a && r.Graph.tgt = b
           | Ast.In -> r.Graph.tgt = a && r.Graph.src = b
           | Ast.Undirected ->
               (r.Graph.src = a && r.Graph.tgt = b) || (r.Graph.tgt = a && r.Graph.src = b))
        && steps nodes rels
    | _ -> false
  in
  List.hd path.Value.path_nodes = c.src
  && steps path.Value.path_nodes path.Value.path_rels
  && List.length (List.sort_uniq compare path.Value.path_rels) = len
  && lo <= len
  && match snd c.range with Some h -> len <= h | None -> true

let paths_of = function
  | Value.List ps ->
      List.map (function Value.Path p -> p | _ -> Alcotest.fail "not a path") ps
  | _ -> Alcotest.fail "allShortestPaths did not return a list"

let sp_differential =
  QCheck.Test.make ~name:"shortestPath agrees with the reference BFS" ~count:1000
    (QCheck.make ~print:print_sp_case gen_sp_case)
    (fun c ->
      let g, run = sp_setup c in
      let all = paths_of (run Matcher.shortest_paths ~all:true) in
      let all_ref = paths_of (run Reference.shortest_paths ~all:true) in
      let key (p : Value.path) = p.Value.path_rels in
      (* allShortestPaths: the same set, every member a valid walk,
         listed in relationship-id order *)
      List.sort compare (List.map key all) = List.sort compare (List.map key all_ref)
      && List.for_all (valid_walk g c) all
      && List.map key all = List.sort compare (List.map key all)
      &&
      match (run Matcher.shortest_paths ~all:false, run Reference.shortest_paths ~all:false) with
      | Value.Null, Value.Null -> all = []
      | Value.Path p, Value.Path q ->
          (* same length; the deterministic pick is the first of
             allShortestPaths *)
          List.length p.Value.path_rels = List.length q.Value.path_rels
          && valid_walk g c p
          && Some p = List.nth_opt all 0
      | _ -> false)

let suite =
  QCheck_alcotest.to_alcotest sp_differential
  :: [
    case "finds a shortest path" (fun () ->
        let t =
          run_table g
            "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
             RETURN length(shortestPath((a)-[:T*]->(c))) AS l"
        in
        check_value "two hops" (vint 2) (first_cell t));
    case "allShortestPaths finds every minimal route" (fun () ->
        let t =
          run_table g
            "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
             RETURN size(allShortestPaths((a)-[:T*]->(c))) AS n"
        in
        check_value "two routes" (vint 2) (first_cell t));
    case "respects direction" (fun () ->
        let t =
          run_table g
            "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
             RETURN length(shortestPath((c)-[:T*]->(a))) AS l"
        in
        check_value "back edge" (vint 1) (first_cell t));
    case "undirected search" (fun () ->
        let t =
          run_table g
            "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
             RETURN length(shortestPath((a)-[:T*]-(c))) AS l"
        in
        (* the undirected view has the 1-hop c->a edge available *)
        check_value "one hop" (vint 1) (first_cell t));
    case "no path yields null / empty list" (fun () ->
        let g2 = graph_of "CREATE (x:X), (y:Y)" in
        let t =
          run_table g2
            "MATCH (x:X), (y:Y) RETURN shortestPath((x)-[:T*]->(y)) AS p,\n\
             allShortestPaths((x)-[:T*]->(y)) AS ps"
        in
        let row = List.hd (Cypher_table.Table.rows t) in
        check_value "null" vnull (Cypher_table.Record.find row "p");
        check_value "empty" (vlist []) (Cypher_table.Record.find row "ps"));
    case "zero-length when endpoints coincide and range admits it" (fun () ->
        let t =
          run_table g
            "MATCH (a:N {name: 'a'}) RETURN length(shortestPath((a)-[:T*0..]->(a))) AS l"
        in
        check_value "zero" (vint 0) (first_cell t));
    case "type filter applies" (fun () ->
        let t =
          run_table g
            "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
             RETURN shortestPath((a)-[:NOPE*]->(c)) AS p"
        in
        check_value "null" vnull (first_cell t));
    case "upper bound limits the search" (fun () ->
        let g2 = graph_of "CREATE (:P {k: 1})-[:T]->(:P {k: 2})-[:T]->(:P {k: 3})" in
        let t =
          run_table g2
            "MATCH (x:P {k: 1}), (z:P {k: 3})\n\
             RETURN shortestPath((x)-[:T*..1]->(z)) AS p"
        in
        check_value "too far" vnull (first_cell t));
    case "path components are usable" (fun () ->
        let t =
          run_table g
            "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
             WITH shortestPath((a)-[:T*]->(c)) AS p\n\
             RETURN [n IN nodes(p) | n.name][0] AS first, size(relationships(p)) AS m"
        in
        let row = List.hd (Cypher_table.Table.rows t) in
        check_value "starts at a" (vstr "a") (Cypher_table.Record.find row "first");
        check_value "two rels" (vint 2) (Cypher_table.Record.find row "m"));
    case "unbound endpoints are an error" (fun () ->
        match run_err g "RETURN shortestPath((a)-[:T*]->(b)) AS p" with
        | Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "non-var-length patterns are rejected" (fun () ->
        match
          run_err g
            "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
             RETURN shortestPath((a)-[:T]->(c)) AS p"
        with
        | Errors.Eval_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "explicit and open length ranges keep the range guard" (fun () ->
        (* regression for the dispatch invariant behind the matcher's
           former [assert false]: every range spelling that reaches the
           BFS carries its bounds *)
        let len range expected =
          let t =
            run_table g
              (Printf.sprintf
                 "MATCH (a:N {name: 'a'}), (c:N {name: 'c'})\n\
                  RETURN length(shortestPath((a)-[:T%s]->(c))) AS l"
                 range)
          in
          check_value (range ^ " hops") expected (first_cell t)
        in
        len "*" (vint 2);
        len "*1.." (vint 2);
        len "*..5" (vint 2);
        (* the shortest route has 2 hops; a [3,3] window excludes it *)
        len "*3..3" vnull);
  ]
