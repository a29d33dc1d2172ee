(* Command-line driver for the fuzzing/cross-validation subsystem.

   Runs [n] generated cases through all nine oracles (round-trip,
   planner equivalence, legacy/revised divergence classification,
   result-graph well-formedness, update counters vs graph diff,
   durability fault injection, prepared-statement equivalence,
   concurrent-workload linearizability, fused-vs-materialised reads)
   and exits non-zero on any failure.  With [-corpus DIR], shrunk
   failures are appended as replayable corpus entries; a concurrent
   failure, which has no corpus format, prints its replay command
   instead.  Each case is named by its own stream seed
   ({!Fuzz.case_seed}) and drawn by {!Cypher_fuzz.Gen.case} in every
   mode: the case printed as seed S, or written as
   fuzz_<oracle>_seedS.cy, replays as [-seed S -n 1], with or without
   [-oracle].  Wired to the [@fuzz] dune alias. *)

module Fuzz = Cypher_fuzz.Fuzz
module Gen = Cypher_fuzz.Gen
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
         (roundtrip|planner|divergence|wellformed|counters|durability|prepared|concurrent|fused)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz_main [-n COUNT] [-seed SEED] [-corpus DIR] [-dump]";
  let case i =
    let case_seed = Fuzz.case_seed ~seed:!seed i in
    (case_seed, Gen.case case_seed)
  in
  let pp_query ppf q = Fmt.string ppf (Cypher_ast.Pretty.query_to_string q) in
  if !dump then (
    for i = 0 to !count - 1 do
      let case_seed, c = case i in
      Fmt.pr "-- seed %d --@.%a@.%a@." case_seed Cypher_graph.Graph.pp c.graph pp_query
        c.statement;
      List.iter (Fmt.pr "extra: %a@." pp_query) c.extra;
      List.iteri
        (fun j (a : Gen.actor) ->
          match a with
          | Gen.Auto q -> Fmt.pr "actor %d (auto): %a@." j pp_query q
          | Gen.Tx qs ->
              Fmt.pr "actor %d (tx):@." j;
              List.iter (Fmt.pr "  %a@." pp_query) qs)
        c.actors;
      Fmt.pr "schedule %d@." c.schedule
    done;
    exit 0);
  if !oracle_only <> "" then (
    if not (List.mem !oracle_only Fuzz.oracles) then (
      prerr_endline ("fuzz_main: unknown oracle " ^ !oracle_only);
      exit 2);
    let fails = ref 0 in
    for i = 0 to !count - 1 do
      let case_seed, c = case i in
      match Fuzz.check !oracle_only c with
      | Ok () -> ()
      | Error d ->
          incr fails;
          Fmt.pr "seed %d: FAIL %s@.statement: %a@." case_seed d pp_query c.statement
    done;
    Fmt.pr "oracle %s: %d cases from seed %d, %d failure(s)@." !oracle_only !count !seed !fails;
    exit (if !fails = 0 then 0 else 1));
  let report = Fuzz.run ~seed:!seed ~count:!count () in
  Fmt.pr "%a@." Fuzz.pp_report report;
  match report.Fuzz.failures with
  | [] -> ()
  | failures ->
      if !corpus_dir <> "" then
        List.iter
          (fun (f : Fuzz.failure) ->
            let write oracle =
              let name = Printf.sprintf "fuzz_%s_seed%d" f.oracle f.case_seed in
              let entry =
                Corpus.entry_of_failure ~name ~oracle ~graph:f.graph ~query:f.query
              in
              let path = Filename.concat !corpus_dir (name ^ ".cy") in
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc (Corpus.render_entry entry));
              Fmt.pr "wrote %s@." path
            in
            match f.oracle with
            | "roundtrip" -> write Corpus.Roundtrip
            | "planner" -> write Corpus.Planner
            | "divergence" -> write Corpus.Divergence
            | "wellformed" -> write Corpus.Wellformed
            | "counters" -> write Corpus.Counters
            | "durability" -> write Corpus.Durability
            | "prepared" -> write Corpus.Prepared
            | "fused" -> write Corpus.Fused
            | "concurrent" ->
                (* an actor workload has no corpus format: its case seed replays it *)
                Fmt.pr "not written: replay with fuzz_main -oracle concurrent -seed %d -n 1@."
                  f.case_seed
            | o -> invalid_arg ("fuzz_main: no corpus entry for oracle " ^ o))
          failures;
      exit 1
