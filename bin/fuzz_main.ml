(* Command-line driver for the fuzzing/cross-validation subsystem.

   Runs [n] generated cases through all nine oracles (round-trip,
   planner equivalence, parallel-vs-serial byte equivalence,
   legacy/revised divergence classification, result-graph
   well-formedness, update counters vs graph diff, durability
   fault injection, prepared-statement equivalence, concurrent-workload
   linearizability) and exits non-zero
   on any failure.  With
   [-corpus DIR], shrunk failures are appended as replayable corpus
   entries.  Wired to the [@fuzz] dune alias; [@par] runs the
   parallel oracle alone over the pinned seeds. *)

module Fuzz = Cypher_fuzz.Fuzz
module Corpus = Cypher_fuzz.Corpus

let () =
  let count = ref 1000 in
  let seed = ref 2026 in
  let corpus_dir = ref "" in
  let dump = ref false in
  let oracle_only = ref "" in
  let spec =
    [
      ("-n", Arg.Set_int count, "COUNT cases per oracle (default 1000)");
      ("-seed", Arg.Set_int seed, "SEED base seed (default 2026)");
      ( "-corpus",
        Arg.Set_string corpus_dir,
        "DIR append shrunk failures as corpus entries to DIR" );
      ( "-dump",
        Arg.Set dump,
        " print the generated cases without running the oracles" );
      ( "-oracle",
        Arg.Set_string oracle_only,
        "NAME run only one oracle \
         (roundtrip|planner|parallel|divergence|wellformed|counters|durability|prepared|concurrent)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz_main [-n COUNT] [-seed SEED] [-corpus DIR] [-dump]";
  if !dump then (
    for i = 0 to !count - 1 do
      let rng = Cypher_fuzz.Rng.make (!seed + i) in
      let g = Cypher_fuzz.Gen.graph rng in
      let q = Cypher_fuzz.Gen.statement rng in
      Fmt.pr "-- seed %d --@.%a@.%s@." (!seed + i)
        Cypher_graph.Graph.pp g
        (Cypher_ast.Pretty.query_to_string q);
      let actors = Cypher_fuzz.Gen.actors rng in
      List.iteri
        (fun j (a : Cypher_fuzz.Gen.actor) ->
          match a with
          | Cypher_fuzz.Gen.Auto q ->
              Fmt.pr "actor %d (auto): %s@." j
                (Cypher_ast.Pretty.query_to_string q)
          | Cypher_fuzz.Gen.Tx qs ->
              Fmt.pr "actor %d (tx):@." j;
              List.iter
                (fun q ->
                  Fmt.pr "  %s@." (Cypher_ast.Pretty.query_to_string q))
                qs)
        actors
    done;
    exit 0);
  (if !oracle_only <> "" then (
     let module Oracles = Cypher_fuzz.Oracles in
     let fails = ref 0 in
     for i = 0 to !count - 1 do
       let rng = Cypher_fuzz.Rng.make (!seed + i) in
       let g = Cypher_fuzz.Gen.graph rng in
       let q = Cypher_fuzz.Gen.statement rng in
       let outcome =
         match !oracle_only with
         | "roundtrip" -> Result.map_error (fun e -> e) (Oracles.roundtrip q)
         | "planner" -> Oracles.planner_equivalence g q
         | "parallel" -> Oracles.parallel_equivalence g q
         | "divergence" -> (
             match Oracles.divergence g q with
             | Oracles.Agree -> Ok ()
             | Oracles.Classified c -> Ok (ignore (Oracles.category_name c))
             | Oracles.Unclassified d -> Error d)
         | "wellformed" -> Oracles.wellformed g q
         | "counters" -> Oracles.counters g q
         | "durability" ->
             let extra =
               [ Cypher_fuzz.Gen.statement rng; Cypher_fuzz.Gen.statement rng ]
             in
             Oracles.durability ~extra g q
         | "prepared" -> Oracles.prepared g q
         | "concurrent" ->
             let actors = Cypher_fuzz.Gen.actors rng in
             Oracles.concurrent g actors
         | o -> raise (Arg.Bad ("unknown oracle " ^ o))
       in
       match outcome with
       | Ok () -> ()
       | Error d ->
           incr fails;
           Fmt.pr "seed %d: FAIL %s@.statement: %s@." (!seed + i) d
             (Cypher_ast.Pretty.query_to_string q)
     done;
     Fmt.pr "oracle %s: %d cases from seed %d, %d failure(s)@." !oracle_only
       !count !seed !fails;
     exit (if !fails = 0 then 0 else 1)));
  let report = Fuzz.run ~seed:!seed ~count:!count () in
  Fmt.pr "%a@." Fuzz.pp_report report;
  match report.Fuzz.failures with
  | [] -> ()
  | failures ->
      if !corpus_dir <> "" then
        List.iter
          (fun (f : Fuzz.failure) ->
            let oracle =
              match f.Fuzz.oracle with
              | "roundtrip" -> Corpus.Roundtrip
              | "planner" -> Corpus.Planner
              | "divergence" -> Corpus.Divergence
              | "counters" -> Corpus.Counters
              | "durability" -> Corpus.Durability
              | "prepared" -> Corpus.Prepared
              | _ -> Corpus.Wellformed
            in
            let name =
              Printf.sprintf "fuzz_%s_seed%d_%d" f.Fuzz.oracle !seed
                f.Fuzz.iteration
            in
            let entry =
              Corpus.entry_of_failure ~name ~oracle ~graph:f.Fuzz.graph
                ~query:f.Fuzz.query
            in
            let path = Filename.concat !corpus_dir (name ^ ".cy") in
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Corpus.render_entry entry));
            Fmt.pr "wrote %s@." path)
          failures;
      exit 1
