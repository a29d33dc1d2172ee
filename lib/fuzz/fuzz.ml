(** The fuzzing driver: generate, run all nine oracles, shrink
    failures.

    Iteration [i] derives a fresh splitmix64 stream from
    [case_seed ~seed i], generates a (graph, statement) case and runs
    the round-trip, planner-equivalence, divergence-classification,
    well-formedness, update-counter, durability, prepared-statement,
    concurrent-workload and fused-vs-materialised oracles
    ({!Oracles}).  The durability oracle extends the case with two
    more generated statements (a three-statement workload makes
    multi-record journals, so truncation sweeps cross record
    boundaries); the concurrent oracle generates 2–3 whole actor
    workloads and checks the server outcome against the serial run of
    the committed actors in commit order.  Failures are shrunk with {!Shrink.minimize}
    under a predicate that reproduces the same oracle's failure, so the
    reported case is (locally) minimal — except concurrent failures,
    which thread interleaving makes nondeterministic; they are
    reported unshrunk. *)

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

let never_raises f = try f () with _ -> false

let run ?(seed = 0) ~count () =
  let failures = ref [] in
  let agreements = ref 0 in
  let counts = Hashtbl.create 8 in
  let bump cat =
    Hashtbl.replace counts cat (1 + Option.value ~default:0 (Hashtbl.find_opt counts cat))
  in
  let record ~oracle ~iteration ~fails g q detail =
    let fails g q = never_raises (fun () -> fails g q) in
    let g, q = if fails g q then Shrink.minimize ~fails g q else (g, q) in
    failures :=
      { oracle; iteration; case_seed = case_seed ~seed iteration; graph = g; query = q; detail }
      :: !failures
  in
  for i = 0 to count - 1 do
    let rng = Rng.make (case_seed ~seed i) in
    let g = Gen.graph rng in
    let q = Gen.statement rng in
    (match Oracles.roundtrip q with
    | Ok () -> ()
    | Error detail ->
        record ~oracle:"roundtrip" ~iteration:i
          ~fails:(fun _ q -> Result.is_error (Oracles.roundtrip q))
          g q detail);
    (match Oracles.planner_equivalence g q with
    | Ok () -> ()
    | Error detail ->
        record ~oracle:"planner" ~iteration:i
          ~fails:(fun g q -> Result.is_error (Oracles.planner_equivalence g q))
          g q detail);
    (match Oracles.divergence g q with
    | Oracles.Agree -> incr agreements
    | Oracles.Classified cat -> bump cat
    | Oracles.Unclassified detail ->
        record ~oracle:"divergence" ~iteration:i
          ~fails:(fun g q ->
            match Oracles.divergence g q with
            | Oracles.Unclassified _ -> true
            | _ -> false)
          g q detail);
    (match Oracles.wellformed g q with
    | Ok () -> ()
    | Error detail ->
        record ~oracle:"wellformed" ~iteration:i
          ~fails:(fun g q -> Result.is_error (Oracles.wellformed g q))
          g q detail);
    (match Oracles.counters g q with
    | Ok () -> ()
    | Error detail ->
        record ~oracle:"counters" ~iteration:i
          ~fails:(fun g q -> Result.is_error (Oracles.counters g q))
          g q detail);
    (match Oracles.prepared g q with
    | Ok () -> ()
    | Error detail ->
        record ~oracle:"prepared" ~iteration:i
          ~fails:(fun g q -> Result.is_error (Oracles.prepared g q))
          g q detail);
    (match Oracles.fused g q with
    | Ok () -> ()
    | Error detail ->
        record ~oracle:"fused" ~iteration:i
          ~fails:(fun g q -> Result.is_error (Oracles.fused g q))
          g q detail);
    let extra = [ Gen.statement rng; Gen.statement rng ] in
    (match Oracles.durability ~extra g q with
    | Ok () -> ()
    | Error detail ->
        record ~oracle:"durability" ~iteration:i
          ~fails:(fun g q -> Result.is_error (Oracles.durability ~extra g q))
          g q detail);
    let actors = Gen.actors rng in
    match Oracles.concurrent g actors with
    | Ok () -> ()
    | Error detail ->
        (* thread interleaving makes reproduction nondeterministic:
           report the failing case unshrunk *)
        record ~oracle:"concurrent" ~iteration:i
          ~fails:(fun _ _ -> false)
          g q detail
  done;
  {
    seed;
    iterations = count;
    agreements = !agreements;
    classified =
      List.filter_map
        (fun cat ->
          match Hashtbl.find_opt counts cat with
          | Some n -> Some (cat, n)
          | None -> None)
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
