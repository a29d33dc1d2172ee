(** Robustness and cross-validation:

    - the parser and lexer never raise on arbitrary input — they return
      typed errors;
    - 1-hop match counts agree with a brute-force count over the
      relationship list;
    - homomorphic matching only ever adds embeddings;
    - the fuzzer's acceptance seeds run disjoint cases. *)

open Cypher_graph
open Cypher_table
module Api = Cypher_core.Api
module Config = Cypher_core.Config

(* --- parser robustness --------------------------------------------- *)

let gen_garbage =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 60))

(* fragments that look like Cypher, glued randomly: exercises deeper
   parser paths than raw characters *)
let fragments =
  [|
    "MATCH"; "CREATE"; "MERGE"; "SAME"; "ALL"; "RETURN"; "WITH"; "WHERE";
    "DELETE"; "SET"; "("; ")"; "["; "]"; "{"; "}"; "-"; "->"; "<-"; ":";
    ","; "n"; "a"; "b"; "x"; "1"; "2.5"; "'s'"; "＄"; "$p"; "*"; ".."; "=";
    "+="; "AS"; "ORDER"; "BY"; "LIMIT"; "|"; "."; ";"; "count"; "null";
  |]

let gen_franken =
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_bound 25) (oneofl (Array.to_list fragments))))

let no_crash src =
  match Cypher_parser.Parser.parse_string src with
  | Ok _ | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "parser raised %s on %S" (Printexc.to_string e)
        src

let parser_fuzz =
  [
    QCheck.Test.make ~name:"parser never raises on garbage" ~count:500
      (QCheck.make ~print:(fun s -> s) gen_garbage)
      no_crash;
    QCheck.Test.make ~name:"parser never raises on keyword salad" ~count:500
      (QCheck.make ~print:(fun s -> s) gen_franken)
      no_crash;
  ]

(* --- matcher cross-check -------------------------------------------- *)

let gen_small_graph =
  QCheck.Gen.(
    let gen_node =
      map (fun labels -> (labels, [])) (list_size (int_bound 2) (oneofl [ "A"; "B" ]))
    in
    map2
      (fun nodes raw_rels ->
        let n = List.length nodes in
        let rels = List.map (fun (a, ty, b) -> (a mod n, ty, b mod n)) raw_rels in
        Cypher_paper.Fixtures.build nodes rels)
      (list_size (int_range 1 5) gen_node)
      (list_size (int_bound 10)
         (triple (int_bound 4) (oneofl [ "T"; "U" ]) (int_bound 4))))

let arb_small_graph = QCheck.make ~print:Graph.to_string gen_small_graph

(** Brute-force count of embeddings of (a:la)-[:ty]->(b:lb). *)
let brute_force g la ty lb =
  List.length
    (List.filter
       (fun (r : Graph.rel) ->
         r.Graph.r_type = ty
         && Graph.has_label g r.Graph.src la
         && Graph.has_label g r.Graph.tgt lb)
       (Graph.rels g))

let engine_count ?(config = Config.revised) g la ty lb =
  let q =
    Printf.sprintf "MATCH (a:%s)-[:%s]->(b:%s) RETURN count(*) AS n" la ty lb
  in
  match Api.run_string ~config g q with
  | Ok o -> (
      match Record.find (List.hd (Table.rows o.Api.table)) "n" with
      | Value.Int n -> n
      | _ -> -1)
  | Error _ -> -1

let brute_force_rev g =
  List.length
    (List.filter
       (fun (r : Graph.rel) ->
         r.Graph.r_type = "T"
         && Graph.has_label g r.Graph.src "B"
         && Graph.has_label g r.Graph.tgt "A")
       (Graph.rels g))

let matcher_tests =
  [
    QCheck.Test.make ~name:"1-hop match count agrees with brute force"
      ~count:150
      (QCheck.pair arb_small_graph (QCheck.oneofl [ ("A", "T", "B"); ("B", "U", "A"); ("A", "U", "A") ]))
      (fun (g, (la, ty, lb)) ->
        engine_count g la ty lb = brute_force g la ty lb);
    QCheck.Test.make
      ~name:"homomorphic matching yields at least the isomorphic embeddings"
      ~count:100 arb_small_graph
      (fun g ->
        let q = "MATCH (a)-[:T]->(b), (c)-[:U]->(d) RETURN count(*) AS n" in
        let count config =
          match Api.run_string ~config g q with
          | Ok o -> (
              match Record.find (List.hd (Table.rows o.Api.table)) "n" with
              | Value.Int n -> n
              | _ -> -1)
          | Error _ -> -1
        in
        count (Config.with_match_mode Config.Homomorphic Config.revised)
        >= count Config.revised);
    QCheck.Test.make
      ~name:"undirected 1-hop counts both directions (self-loops once)"
      ~count:100 arb_small_graph
      (fun g ->
        (* a self-loop on an :A:B node qualifies in both directions but
           is traversed only once undirected *)
        let qualifying_self_loops =
          List.length
            (List.filter
               (fun (r : Graph.rel) ->
                 r.Graph.r_type = "T"
                 && r.Graph.src = r.Graph.tgt
                 && Graph.has_label g r.Graph.src "A"
                 && Graph.has_label g r.Graph.src "B")
               (Graph.rels g))
        in
        let directed =
          engine_count g "A" "T" "B" + brute_force_rev g
          - qualifying_self_loops
        in
        let undirected =
          match
            Api.run_string ~config:Config.revised g
              "MATCH (a:A)-[:T]-(b:B) RETURN count(*) AS n"
          with
          | Ok o -> (
              match Record.find (List.hd (Table.rows o.Api.table)) "n" with
              | Value.Int n -> n
              | _ -> -1)
          | Error _ -> -1
        in
        undirected = directed);
  ]

(* --- case seeds ------------------------------------------------------- *)

module Fuzz = Cypher_fuzz.Fuzz
module Rng = Cypher_fuzz.Rng

(* the base seeds the @fuzz alias runs, 1000 cases each *)
let acceptance_seeds = [ 1; 7; 100; 2026 ]

let case_seeds =
  List.concat_map
    (fun seed -> List.init 1000 (fun i -> Fuzz.case_seed ~seed i))
    acceptance_seeds

let distinct l = List.length (List.sort_uniq compare l)

let seed_tests =
  [
    Alcotest.test_case "acceptance seeds x 1000 run 4000 distinct cases" `Quick
      (fun () ->
        Alcotest.(check int) "distinct case seeds" 4000 (distinct case_seeds);
        (* no stream is another one shifted by a few draws *)
        let draws =
          List.concat_map
            (fun s ->
              let rng = Rng.make s in
              List.init 8 (fun _ -> Rng.next_int64 rng))
            case_seeds
        in
        Alcotest.(check int) "distinct first 8 draws" 32000 (distinct draws));
    Alcotest.test_case "case 0 of a run is its base seed" `Quick (fun () ->
        List.iter
          (fun seed ->
            let s = Fuzz.case_seed ~seed 537 in
            Alcotest.(check int) "replay seed" s (Fuzz.case_seed ~seed:s 0))
          acceptance_seeds);
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest (parser_fuzz @ matcher_tests) @ seed_tests
