(** Corpus replay and a bounded fuzzing smoke run (tier-1).

    Every [.cy] file under [corpus/] is a regression: a hand-written
    demonstration (the exact int/float and NaN comparison bugs fail
    here on the pre-fix tree) or a shrunk fuzzer failure appended by
    [fuzz_main -corpus].  The smoke run drives a bounded number of
    freshly generated cases through every oracle so tier-1 keeps
    the whole pipeline honest without the cost of [@fuzz]. *)

open Cypher_fuzz
open Test_util

let corpus_dir = fixture "corpus"

let corpus_cases =
  if not (Sys.file_exists corpus_dir) then []
  else
    List.map
      (fun loaded ->
        match loaded with
        | Error msg ->
            case ("corpus entry parses: " ^ msg) (fun () -> Alcotest.fail msg)
        | Ok e ->
            case ("corpus " ^ e.Corpus.name) (fun () ->
                match Corpus.check e with
                | Ok () -> ()
                | Error detail -> Alcotest.fail detail))
      (Corpus.load_dir corpus_dir)

let roundtrip_cases =
  [
    case "corpus entries survive render -> parse" (fun () ->
        List.iter
          (fun loaded ->
            match loaded with
            | Error msg -> Alcotest.fail msg
            | Ok e -> (
                match Corpus.parse_entry ~name:e.Corpus.name (Corpus.render_entry e) with
                | Error msg -> Alcotest.fail msg
                | Ok e' ->
                    Alcotest.(check bool)
                      ("entry " ^ e.Corpus.name ^ " unchanged")
                      true (e = e')))
          (if Sys.file_exists corpus_dir then Corpus.load_dir corpus_dir else []));
  ]

let header_cases =
  let parse text = Corpus.parse_entry ~name:"e.cy" text in
  [
    case "corpus rejects an unknown oracle header" (fun () ->
        (* [backend] named an oracle that no longer exists *)
        match parse "// oracle: backend\nMATCH (n) RETURN n" with
        | Ok _ -> Alcotest.fail "accepted oracle: backend"
        | Error msg ->
            Alcotest.(check string) "message" "e.cy: unknown oracle backend" msg);
    case "corpus rejects the retired parallel oracle" (fun () ->
        (* [parallel] named an oracle that no longer exists; its
           regressions replay under [planner] *)
        match parse "// oracle: parallel\nMATCH (n) RETURN n" with
        | Ok _ -> Alcotest.fail "accepted oracle: parallel"
        | Error msg ->
            Alcotest.(check string) "message" "e.cy: unknown oracle parallel" msg);
    case "corpus index names needing quotes survive render -> parse" (fun () ->
        let e =
          {
            Corpus.name = "e";
            oracle = Corpus.Oracle "planner";
            indexes = [ ("My Label", "a key"); ("A", "k`1") ];
            setup = [ "CREATE (:`My Label` {`a key`: 1})" ];
            homomorphic = false;
            statement = "MATCH (n:`My Label` {`a key`: 1}) RETURN n";
          }
        in
        let text = Corpus.render_entry e in
        Alcotest.(check bool) "quoted in the header" true
          (contains_substring text "// index: `My Label` `a key`\n");
        (match Corpus.parse_entry ~name:"e" text with
        | Error msg -> Alcotest.fail msg
        | Ok e' ->
            Alcotest.(check (list (pair string string))) "indexes" e.Corpus.indexes
              e'.Corpus.indexes;
            Alcotest.(check bool) "entry unchanged" true (e = e'));
        match Corpus.check e with Ok () -> () | Error msg -> Alcotest.fail msg);
    case "corpus rejects a malformed index header" (fun () ->
        (* an unquoted name with a space reads as three words *)
        match parse "// oracle: planner\n// index: My Label k\nMATCH (n) RETURN n" with
        | Ok _ -> Alcotest.fail "accepted // index: My Label k"
        | Error msg ->
            Alcotest.(check string) "message"
              "e.cy: bad // index: header My Label k: trailing text" msg);
    case "corpus rejects an entry without an oracle header" (fun () ->
        match parse "// graph: CREATE (:A)\nMATCH (n) RETURN n" with
        | Ok _ -> Alcotest.fail "accepted an entry with no oracle"
        | Error msg ->
            Alcotest.(check string) "message" "e.cy: missing // oracle: header" msg);
  ]

let writer_cases =
  [
    case "a failure's graph is written as its dump and rebuilds isomorphically" (fun () ->
        let g =
          (run ~config:Cypher_core.Config.permissive Cypher_graph.Graph.empty
             "CREATE (a:A {f: 0.1, big: 1e20, l: [1, 2.5, 'x'], s: 'it\\'s \\\\ \\n\\t\"'})\
              -[:T {w: -1.5}]->(a), (a)-[:U]->(:B {k: 3})").Cypher_core.Api.r_graph
          |> Cypher_graph.Graph.add_prop_index ~label:"A" ~key:"f"
        in
        let oracle = Option.get (Oracles.find "planner") in
        let f =
          { Fuzz.oracle; iteration = 0; case_seed = 1; case = { (Gen.case 1) with graph = g };
            detail = "d" }
        in
        let e = Option.get (Corpus.entry_of_failure f) in
        Alcotest.(check int) "one // graph: line" 1 (List.length e.Corpus.setup);
        match Corpus.parse_entry ~name:e.Corpus.name (Corpus.render_entry e) with
        | Error msg -> Alcotest.fail msg
        | Ok e' -> (
            match Corpus.build_graph e' with
            | Error msg -> Alcotest.fail msg
            | Ok g' ->
                Alcotest.check graph_iso_testable "rebuilt graph" g g';
                Alcotest.(check (list (pair string string))) "indexes"
                  (Cypher_graph.Graph.prop_index_keys g) (Cypher_graph.Graph.prop_index_keys g')));
  ]

let smoke_cases =
  [
    case "fuzz smoke: 60 cases x 9 oracles" (fun () ->
        let report = Fuzz.run ~seed:20260807 ~count:60 () in
        match report.Fuzz.failures with
        | [] -> ()
        | f :: _ -> Alcotest.failf "fuzz failure %a" Fuzz.pp_failure f);
  ]

let suite = corpus_cases @ roundtrip_cases @ header_cases @ writer_cases @ smoke_cases
