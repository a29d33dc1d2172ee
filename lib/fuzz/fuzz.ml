(** The fuzzing driver: generate, run every oracle of {!Oracles.all},
    shrink failures.

    Iteration [i] draws the case {!Gen.case} from stream seed
    [case_seed ~seed i] and runs it through each row of the oracle
    table {!Oracles.all}, in table order.  Each row reads the parts of
    the case it names: most read the statement; the durability oracle
    also reads the two extra statements (a three-statement workload
    makes multi-record journals, so truncation sweeps cross record
    boundaries); the concurrent oracle reads only the 2–3 actor
    workloads and the schedule seed that interleaves them.  Failures
    are shrunk with {!Shrink.minimize} under a predicate that
    reproduces the same oracle's failure, so the reported case is
    (locally) minimal.  A generated statement whose printed text does
    not parse ({!Oracles.Harness_error}) fails the oracle that met it,
    as a harness error, and is never shrunk. *)

module Graph = Cypher_graph.Graph
module Pretty = Cypher_ast.Pretty

(* An odd 62-bit stride, unrelated to splitmix64's increment: the case
   seeds of base seeds less than 2.5e12 apart never meet within a
   million cases (under [seed + i], consecutive base seeds share all
   but one), and neighbouring cases do not start on each other's
   stream a few draws in *)
let case_stride = 0x2545F4914F6CDD1D

(** [case_seed ~seed i] is the stream seed of case [i] of a run from base
    [seed].  Case 0 is [seed] itself, so the case printed as seed [s]
    replays as case 0 of a run from [s] ([fuzz_main -seed s -n 1]). *)
let case_seed ~seed i = seed + (i * case_stride)

type failure = {
  oracle : Oracles.oracle;
  iteration : int;
  case_seed : int;  (** replays as case 0 of a run from this seed *)
  case : Gen.case;  (** graph and statement shrunk *)
  detail : string;
}

type report = {
  seed : int;
  iterations : int;  (** cases run through each oracle *)
  agreements : int;  (** divergence-oracle runs where both regimes agree *)
  classified : (Oracles.category * int) list;  (** sanctioned divergences *)
  failures : failure list;  (** shrunk; empty on a clean run *)
}

let harness f =
  try f () with Oracles.Harness_error m -> Error ("harness error: " ^ m)

(** [check oracle c] is [oracle]'s verdict on case [c]; a sanctioned
    divergence passes, a harness error fails. *)
let check (o : Oracles.oracle) c = Result.map ignore (harness (fun () -> o.verdict c))

let run ?(seed = 0) ~count () =
  let failures = ref [] in
  let passes = ref [] in
  for i = 0 to count - 1 do
    let c = Gen.case (case_seed ~seed i) in
    List.iter
      (fun (o : Oracles.oracle) ->
        match harness (fun () -> o.verdict c) with
        | Ok pass -> passes := pass :: !passes
        | Error detail ->
            (* an oracle that does not read the statement fails on no
               statement candidate, so only its graph shrinks; a
               candidate that raises, a harness error included, does
               not fail *)
            let fails g q =
              (List.mem Oracles.Statement o.reads || q == c.statement)
              && try Result.is_error (o.verdict { c with graph = g; statement = q }) with _ -> false
            in
            let g, q =
              if fails c.graph c.statement then Shrink.minimize ~fails c.graph c.statement
              else (c.graph, c.statement)
            in
            failures :=
              {
                oracle = o;
                iteration = i;
                case_seed = case_seed ~seed i;
                case = { c with graph = g; statement = q };
                detail;
              }
              :: !failures)
      Oracles.all
  done;
  let tally p = List.length (List.filter (( = ) p) !passes) in
  {
    seed;
    iterations = count;
    agreements = tally Oracles.Agree;
    classified =
      List.filter_map
        (fun cat -> match tally (Oracles.Classified cat) with 0 -> None | n -> Some (cat, n))
        Oracles.all_categories;
    failures = List.rev !failures;
  }

(** [pp_case ?oracle] prints the parts of a case that [oracle] reads,
    then its graph; without [oracle], every part. *)
let pp_case ?oracle ppf (c : Gen.case) =
  let reads part =
    match oracle with None -> true | Some (o : Oracles.oracle) -> List.mem part o.reads
  in
  let pp_q ppf q = Fmt.string ppf (Pretty.query_to_string q) in
  Fmt.pf ppf "@[<v>";
  if reads Statement then Fmt.pf ppf "statement: %a@," pp_q c.statement;
  if reads Extra then List.iter (Fmt.pf ppf "extra: %a@," pp_q) c.extra;
  if reads Actors then begin
    List.iteri
      (fun j (a : Gen.actor) ->
        match a with
        | Gen.Auto q -> Fmt.pf ppf "actor %d (auto): %a@," j pp_q q
        | Gen.Tx qs ->
            Fmt.pf ppf "actor %d (tx):@," j;
            List.iter (Fmt.pf ppf "  %a@," pp_q) qs)
      c.actors;
    Fmt.pf ppf "schedule: %d@," c.schedule
  end;
  Fmt.pf ppf "graph:@,%a@]" Graph.pp c.graph

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>[%s] iteration %d (seed %d): %s@,%a@]" f.oracle.name f.iteration
    f.case_seed f.detail (pp_case ~oracle:f.oracle) f.case

let pp_report ppf r =
  Fmt.pf ppf "@[<v>fuzz: seed %d, %d cases x %d oracles@," r.seed r.iterations
    (List.length Oracles.all);
  Fmt.pf ppf "divergence oracle: %d agree, %d sanctioned divergences@,"
    r.agreements
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.classified);
  List.iter
    (fun (cat, n) ->
      Fmt.pf ppf "  %-18s %d@," (Oracles.category_name cat) n)
    r.classified;
  (match r.failures with
  | [] -> Fmt.pf ppf "no failures"
  | fs ->
      Fmt.pf ppf "%d FAILURE(S):@," (List.length fs);
      Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@,@,") pp_failure) fs);
  Fmt.pf ppf "@]"
