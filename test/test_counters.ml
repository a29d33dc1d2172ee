(** Update counters pinned over the corpus statements, the paper's
    experiments E1–E11 and seeded F1-style MERGE tables, one line per
    statement in [counters.expected].  A changed line is a change in
    what the counters mean, not only in how they are computed. *)

open Cypher_graph
open Cypher_table
open Test_util
module Api = Cypher_core.Api
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors
module Stats = Cypher_core.Stats

(* a MERGE clause on an explicit driving table, as the experiments run
   it, with the counters a statement would report *)
let merge_stats config mode src (g, t) =
  match Cypher_paper.Runner.parse_clause src with
  | Cypher_ast.Ast.Merge { patterns; on_create; on_match; _ } ->
      let c = Stats.make () in
      let g', t' =
        Cypher_core.Merge.run config ~stats:c (g, t) ~mode ~patterns ~on_create ~on_match
      in
      Stats.finalize c ~before:g ~after:g' ~rows:(Table.row_count t')
  | _ -> Alcotest.failf "not a MERGE clause: %s" src

let api_line name config g src =
  match Api.run_string_full ~config g src with
  | Ok r -> (Printf.sprintf "%s | %s" name (Stats.to_string r.Api.r_stats), Some r.Api.r_graph)
  | Error e -> (Printf.sprintf "%s | error %s" name (Errors.to_string e), None)

let order_name = function
  | Config.Forward -> "forward"
  | Config.Reverse -> "reverse"
  | Config.Seeded n -> Printf.sprintf "seeded %d" n

let configs =
  [ ("revised", Config.revised); ("cypher9", Config.cypher9); ("permissive", Config.permissive) ]

let modes =
  Cypher_ast.Ast.
    [
      ("legacy", Merge_legacy); ("all", Merge_all); ("same", Merge_same);
      ("grouping", Merge_grouping); ("weak", Merge_weak_collapse);
      ("collapse", Merge_collapse);
    ]

let merge_line name config mode src (g, t) =
  match merge_stats config mode src (g, t) with
  | st -> Printf.sprintf "%s | %s" name (Stats.to_string st)
  | exception Errors.Error e -> Printf.sprintf "%s | error %s" name (Errors.to_string e)

(* the corpus entries [pinned] names: an entry added later has no lines
   to match yet *)
let corpus_lines ~pinned =
  List.concat_map
    (function
      | Error m -> [ "corpus entry failed to load: " ^ m ]
      | Ok (e : Cypher_fuzz.Corpus.entry) when not (List.mem e.name pinned) -> []
      | Ok (e : Cypher_fuzz.Corpus.entry) -> (
          match Cypher_fuzz.Corpus.build_graph e with
          | Error m -> [ e.name ^ " | setup error " ^ m ]
          | Ok g ->
              List.map
                (fun (cn, config) -> fst (api_line (e.name ^ " " ^ cn) config g e.statement))
                configs))
    (Cypher_fuzz.Corpus.load_dir (fixture "corpus"))

let experiment_lines () =
  let open Cypher_paper in
  let chain name config g srcs =
    let _, lines =
      List.fold_left
        (fun (g, acc) (i, src) ->
          let line, g' = api_line (Printf.sprintf "%s.%d" name i) config g src in
          (Option.value g' ~default:g, line :: acc))
        (g, []) (List.mapi (fun i s -> (i, s)) srcs)
    in
    List.rev lines
  in
  let fig1 = Fixtures.figure1_setup in
  List.concat
    [
      chain "E1 revised" Config.revised Graph.empty
        [ fig1; Fixtures.query1; Fixtures.query2; Fixtures.query3;
          "MATCH (p:Product {id: 120}) DELETE p"; Fixtures.query4 ];
      chain "E1 cypher9" Config.cypher9 Graph.empty
        [ fig1; Fixtures.query1; Fixtures.query2; Fixtures.query3; Fixtures.query4 ];
      chain "E2 cypher9" Config.cypher9 Graph.empty [ fig1; Fixtures.query5_legacy ];
      chain "E2 revised" Config.revised Graph.empty
        [ fig1; "MATCH (p:Product) MERGE ALL (p)<-[:OFFERS]-(v:Vendor) RETURN p, v" ];
      chain "E3 revised" Config.revised Graph.empty [ fig1; Fixtures.example1_swap ];
      chain "E3 cypher9" Config.cypher9 Graph.empty [ fig1; Fixtures.example1_swap ];
      chain "E4 revised" Config.revised Graph.empty [ fig1; Fixtures.example2_ambiguous ];
      chain "E4 cypher9" Config.cypher9 Graph.empty [ fig1; Fixtures.example2_ambiguous ];
      List.map
        (fun (name, config) ->
          fst (api_line name config Fixtures.deleted_node_graph Fixtures.deleted_node_query))
        [ ("E5 cypher9", Config.cypher9); ("E5 revised", Config.revised) ];
      List.concat_map
        (fun order ->
          let name = Printf.sprintf "E6 %s" (order_name order) in
          [ merge_line name (Config.with_order order Config.cypher9) Cypher_ast.Ast.Merge_legacy
              Fixtures.example3_merge (Fixtures.example3_graph, Fixtures.example3_table) ])
        Runner.probe_orders;
      List.concat_map
        (fun (ex, src, g, t) ->
          List.concat_map
            (fun (mn, mode) ->
              List.map
                (fun order ->
                  merge_line
                    (Printf.sprintf "%s %s %s" ex mn (order_name order))
                    (Config.with_order order Config.permissive) mode src (g, t))
                Runner.probe_orders)
            modes)
        [
          ("E7/E8", Fixtures.example5_merge, Graph.empty, Fixtures.example5_table);
          ("E9", Fixtures.example6_merge, Graph.empty, Fixtures.example6_table);
          ("E10", Fixtures.example7_merge, Fixtures.example7_graph, Fixtures.example7_table);
        ];
      List.concat_map
        (fun (mn, mode) ->
          let g = fst (Runner.run_merge_mode Config.permissive ~mode Fixtures.example7_merge
                         (Fixtures.example7_graph, Fixtures.example7_table)) in
          [ fst (api_line ("E10/E11 rematch " ^ mn) Config.revised g Fixtures.example7_match) ])
        (List.tl modes);
    ]

(* F1: seeded Example-5-style driving tables with duplicates and nulls,
   merged under every mode onto an empty and a non-empty graph *)
let f1_lines () =
  let row rand =
    let cid = 1 + Random.State.int rand 3 and pid = Random.State.int rand 3 in
    Record.of_list
      [ ("cid", Value.Int cid); ("pid", if pid = 0 then Value.Null else Value.Int pid);
        ("date", Value.String (string_of_int (Random.State.int rand 10))) ]
  in
  let rand = Random.State.make [| 2019 |] in
  let base =
    graph_of
      "CREATE (:User {id: 1})-[:ORDERED]->(:Product {id: 2}), (:User {id: 3}), (:Product {id: 1})"
  in
  List.concat_map
    (fun i ->
      let rows = List.init (Random.State.int rand 9) (fun _ -> row rand) in
      let t = Table.make [ "cid"; "pid"; "date" ] rows in
      List.concat_map
        (fun (mn, mode) ->
          List.map
            (fun (gn, g) ->
              merge_line (Printf.sprintf "F1 table %d %s %s" i mn gn) Config.permissive mode
                Cypher_paper.Fixtures.example5_merge (g, t))
            [ ("empty", Graph.empty); ("base", base) ])
        modes)
    (List.init 12 Fun.id)

let golden_lines ~pinned = corpus_lines ~pinned @ experiment_lines () @ f1_lines ()

let suite =
  [
    case "counters match the pinned lines" (fun () ->
        let expected =
          In_channel.with_open_text (fixture "counters.expected") In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        let pinned = List.map (fun l -> List.hd (String.split_on_char ' ' l)) expected in
        Alcotest.(check (list string)) "counter lines" expected (golden_lines ~pinned));
  ]
