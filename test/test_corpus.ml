(** Corpus replay and a bounded fuzzing smoke run (tier-1).

    Every [.cy] file under [corpus/] is a regression: a hand-written
    demonstration (the exact int/float and NaN comparison bugs fail
    here on the pre-fix tree) or a shrunk fuzzer failure appended by
    [fuzz_main -corpus].  The smoke run drives a bounded number of
    freshly generated cases through all nine oracles so tier-1 keeps
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
            oracle = Corpus.Planner;
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

let smoke_cases =
  [
    case "fuzz smoke: 60 cases x 9 oracles" (fun () ->
        let report = Fuzz.run ~seed:20260807 ~count:60 () in
        match report.Fuzz.failures with
        | [] -> ()
        | f :: _ ->
            Alcotest.failf
              "fuzz failure [%s] at iteration %d (seed %d): %s\nstatement: %s"
              f.Fuzz.oracle f.Fuzz.iteration f.Fuzz.case_seed f.Fuzz.detail
              (Cypher_ast.Pretty.query_to_string f.Fuzz.query));
  ]

let suite = corpus_cases @ roundtrip_cases @ header_cases @ smoke_cases
