(* Command-line driver for the fuzzing/cross-validation subsystem.

   Runs [n] generated cases through every oracle of the table
   {!Cypher_fuzz.Oracles.all} and exits non-zero on any failure.  With
   [-corpus DIR], shrunk failures are appended as replayable corpus
   entries; the failure of an oracle that reads actors, which have no
   corpus format, prints its replay command instead.  Each case is
   named by its own stream seed ({!Fuzz.case_seed}) and drawn by
   {!Cypher_fuzz.Gen.case} in every mode: the case printed as seed S,
   or written as fuzz_<oracle>_seedS.cy, replays as [-seed S -n 1],
   with or without [-oracle].  Wired to the [@fuzz] dune alias. *)

module Fuzz = Cypher_fuzz.Fuzz
module Gen = Cypher_fuzz.Gen
module Corpus = Cypher_fuzz.Corpus
module Oracles = Cypher_fuzz.Oracles

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
        "NAME run only one oracle ("
        ^ String.concat "|" (List.map (fun (o : Oracles.oracle) -> o.name) Oracles.all)
        ^ ")" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz_main [-n COUNT] [-seed SEED] [-corpus DIR] [-dump]";
  let case i =
    let case_seed = Fuzz.case_seed ~seed:!seed i in
    (case_seed, Gen.case case_seed)
  in
  if !dump then (
    for i = 0 to !count - 1 do
      let case_seed, c = case i in
      Fmt.pr "-- seed %d --@.%a@." case_seed (Fuzz.pp_case ?oracle:None) c
    done;
    exit 0);
  if !oracle_only <> "" then (
    let oracle =
      match Oracles.find !oracle_only with
      | Some o -> o
      | None ->
          prerr_endline ("fuzz_main: unknown oracle " ^ !oracle_only);
          exit 2
    in
    let fails = ref 0 in
    for i = 0 to !count - 1 do
      let case_seed, c = case i in
      match Fuzz.check oracle c with
      | Ok () -> ()
      | Error d ->
          incr fails;
          Fmt.pr "seed %d: FAIL %s@.%a@." case_seed d (Fuzz.pp_case ~oracle) c
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
            match Corpus.entry_of_failure f with
            | None ->
                Fmt.pr "not written: replay with fuzz_main -oracle %s -seed %d -n 1@."
                  f.oracle.name f.case_seed
            | Some entry ->
                let path = Filename.concat !corpus_dir (entry.name ^ ".cy") in
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc (Corpus.render_entry entry));
                Fmt.pr "wrote %s@." path)
          failures;
      exit 1
