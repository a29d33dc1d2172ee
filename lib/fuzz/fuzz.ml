(** The fuzzing driver: generate, run all nine oracles, shrink
    failures.

    Iteration [i] draws the case {!Gen.case} from stream seed
    [case_seed ~seed i] and runs the round-trip, planner-equivalence,
    divergence-classification, well-formedness, update-counter,
    durability, prepared-statement, concurrent-workload and
    fused-vs-materialised oracles ({!Oracles}).  The durability oracle
    extends the case's statement with its two extra statements (a
    three-statement workload makes multi-record journals, so truncation
    sweeps cross record boundaries); the concurrent oracle interleaves
    the case's 2–3 actor workloads in the order its schedule seed picks
    and checks the server outcome against the serial run of the
    committed actors in commit order.  Failures are shrunk with
    {!Shrink.minimize} under a predicate that reproduces the same
    oracle's failure, so the reported case is (locally) minimal. *)

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
  oracle : string;
  iteration : int;
  case_seed : int;  (** replays as case 0 of a run from this seed *)
  graph : Graph.t;
  query : Cypher_ast.Ast.query;
  detail : string;
}

type report = {
  seed : int;
  iterations : int;  (** cases run through each of the nine oracles *)
  agreements : int;  (** divergence-oracle runs where both regimes agree *)
  classified : (Oracles.category * int) list;  (** sanctioned divergences *)
  failures : failure list;  (** shrunk; empty on a clean run *)
}

(** The oracles' names, in the order {!run} runs them. *)
let oracles =
  [ "roundtrip"; "planner"; "divergence"; "wellformed"; "counters"; "prepared"; "fused";
    "durability"; "concurrent" ]

(** [check oracle c] is [oracle]'s verdict on case [c]; a sanctioned
    divergence passes. *)
let check oracle (c : Gen.case) =
  let g = c.graph and q = c.statement in
  match oracle with
  | "roundtrip" -> Oracles.roundtrip q
  | "planner" -> Oracles.planner_equivalence g q
  | "divergence" -> (
      match Oracles.divergence g q with Oracles.Unclassified d -> Error d | _ -> Ok ())
  | "wellformed" -> Oracles.wellformed g q
  | "counters" -> Oracles.counters g q
  | "prepared" -> Oracles.prepared g q
  | "fused" -> Oracles.fused g q
  | "durability" -> Oracles.durability ~extra:c.extra g q
  | "concurrent" -> Oracles.concurrent ~schedule:c.schedule g c.actors
  | o -> invalid_arg ("Fuzz.check: no oracle " ^ o)

let run ?(seed = 0) ~count () =
  let failures = ref [] in
  let passed = ref [] (* the divergence oracle's agreements and sanctioned divergences *) in
  for i = 0 to count - 1 do
    let c = Gen.case (case_seed ~seed i) in
    let verdict = function
      | "divergence" -> (
          match Oracles.divergence c.graph c.statement with
          | Oracles.Unclassified d -> Error d
          | o ->
              passed := o :: !passed;
              Ok ())
      | oracle -> check oracle c
    in
    List.iter
      (fun oracle ->
        match verdict oracle with
        | Ok () -> ()
        | Error detail ->
            (* the actors, not the statement, make a concurrent case:
               no statement candidate counts as failing, so only its
               graph shrinks *)
            let fails g q =
              (oracle <> "concurrent" || q == c.statement)
              && try Result.is_error (check oracle { c with graph = g; statement = q }) with _ -> false
            in
            let g, q =
              if fails c.graph c.statement then Shrink.minimize ~fails c.graph c.statement
              else (c.graph, c.statement)
            in
            failures :=
              { oracle; iteration = i; case_seed = case_seed ~seed i; graph = g; query = q; detail }
              :: !failures)
      oracles
  done;
  let tally o = List.length (List.filter (( = ) o) !passed) in
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

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>[%s] iteration %d (seed %d): %s@,statement: %s@,graph:@,%a@]"
    f.oracle f.iteration f.case_seed f.detail
    (Pretty.query_to_string f.query)
    Graph.pp f.graph

let pp_report ppf r =
  Fmt.pf ppf "@[<v>fuzz: seed %d, %d cases x 9 oracles@," r.seed r.iterations;
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
