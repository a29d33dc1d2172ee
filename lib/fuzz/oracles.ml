(** The cross-validation oracles run against every generated case, and
    {!all}, the table that names them: one row per oracle with the parts
    of a case it reads and its verdict.  The fuzzer, the corpus and
    [fuzz_main] read the table, so an oracle is named nowhere else.

    1. {!roundtrip}: pretty-print → re-parse → AST equality.  Guards
       the concrete syntax layer: every AST the generator can build must
       survive the printer/parser pair unchanged.
    2. {!planner_equivalence}: planner-on vs planner-off execution under
       the revised semantics.  Cost-guided planning may change row
       *order* but never the row *set* nor the result graph.
    3. {!divergence}: legacy (Cypher 9) vs revised (atomic) execution.
       The two semantics are allowed to differ — that difference is the
       paper's subject — but only in the sanctioned ways catalogued by
       {!category}.  An unclassifiable divergence is a bug in one of the
       two engines.
    4. {!wellformed}: after every successful update, the result graph
       must have no dangling relationship endpoints, the label and
       property indexes must agree with a from-scratch {!Graph.rebuild},
       and every adjacency view and both graphs' per-type counts must
       agree with a scan of the relationships ({!adjacency_matches_scan},
       {!type_counts_match_scan}).
       Both graphs must also store every id set, property map and
       id-keyed trie in its canonical form ({!representation_ok}).
    5. {!counters}: the statement update counters ({!Cypher_core.Stats})
       reported by a successful run must equal an independently computed
       structural diff of the input and output graphs, under both
       regimes.  The engine's counters are its own diff of the two
       graphs' id tries; the oracle's are a full scan of both, and the
       two must agree.
    6. {!durability}: crash-recovery fault injection.  The workload runs
       through a journaling session against an in-memory journal; the
       oracle then checks that (a) the snapshot image reloads
       isomorphically (dump round-trip), (b) full recovery reproduces
       the live graph, (c) replay of every record-count prefix lands on
       the corresponding statement-boundary graph, and (d) truncating
       the journal at {e every byte} and corrupting {e every byte}
       yields precisely-reported damage and recovery to a statement
       boundary — never a crash, never a silently different graph.
    7. {!prepared}: prepared-statement equivalence.  Every (eligible)
       literal of the statement is lifted into a [$p0..$pn] parameter
       binding; the rewritten text is compiled once with {!Api.prepare}
       and executed twice with the extracted bindings — the second
       execution reuses the statement's memoized match plans — and both
       executions must be byte-identical to the direct run (graph,
       table, counters, error).
    8. {!concurrent}: generated actors run against one shared server,
       their requests interleaved in an order the case's schedule seed
       picks; the outcome must match the serial run of their commits in
       the order the server committed them.
    9. {!fused}: a read statement run plain (MATCH folded straight into
       an aggregating projection) and under [PROFILE] (clause by clause,
       materialising) must produce byte-identical tables.

    Every oracle runs a generated statement as its printed text
    ({!text}), the one way a statement enters the engine, so each run
    takes the compile path and the up-front parameter check users
    get. *)

open Cypher_ast.Ast
open Cypher_util.Maps
module Graph = Cypher_graph.Graph
module Props = Cypher_graph.Props
module Ids = Cypher_graph.Ids
module Value = Cypher_graph.Value
module Iso = Cypher_graph.Iso
module Table = Cypher_table.Table
module Record = Cypher_table.Record
module Api = Cypher_core.Api
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors
module Pretty = Cypher_ast.Pretty
module Parser = Cypher_parser.Parser

(* ------------------------------------------------------------------ *)
(* Query inspection                                                   *)
(* ------------------------------------------------------------------ *)

type features = { has_set : bool; has_delete : bool; has_merge : bool }

let query_features q =
  let f = ref { has_set = false; has_delete = false; has_merge = false } in
  let rec clause = function
    | Set _ -> f := { !f with has_set = true }
    | Remove _ -> f := { !f with has_set = true }
    | Delete _ -> f := { !f with has_delete = true }
    | Merge { on_create; on_match; _ } ->
        f :=
          {
            !f with
            has_merge = true;
            has_set = !f.has_set || on_create <> [] || on_match <> [];
          }
    | Foreach { fe_body; _ } -> List.iter clause fe_body
    | Create _ | Match _ | Unwind _ | With _ | Return _ -> ()
  in
  let rec query q =
    List.iter clause q.clauses;
    Option.iter (fun (_, q') -> query q') q.union
  in
  query q;
  !f

let rec query_is_update q =
  List.exists is_update_clause q.clauses
  || Option.fold ~none:false ~some:(fun (_, q') -> query_is_update q') q.union

let rec has_skip_limit q =
  List.exists
    (function
      | With p | Return p -> p.proj_skip <> None || p.proj_limit <> None
      | _ -> false)
    q.clauses
  || Option.fold ~none:false ~some:(fun (_, q') -> has_skip_limit q') q.union

(** Rewrites every MERGE (of whatever flavour) to the legacy per-record
    match-or-create.  The divergence oracle compares the *same* pattern
    text under both semantic regimes; {!Cypher_core.Merge} dispatches on
    the clause's own mode, so the legacy run needs the clause rewritten,
    not just the configuration switched. *)
let rec legacy_clause = function
  | Merge m -> Merge { m with mode = Merge_legacy }
  | Foreach f -> Foreach { f with fe_body = List.map legacy_clause f.fe_body }
  | c -> c

let rec legacy_query q =
  {
    clauses = List.map legacy_clause q.clauses;
    union = Option.map (fun (all, q') -> (all, legacy_query q')) q.union;
  }

(* ------------------------------------------------------------------ *)
(* Error comparison                                                   *)
(* ------------------------------------------------------------------ *)

type error_kind =
  | K_parse
  | K_validation
  | K_eval
  | K_set_conflict
  | K_delete_dangling
  | K_statement_dangling
  | K_update
  | K_internal

let error_kind = function
  | Errors.Parse_error _ -> K_parse
  | Errors.Validation_error _ -> K_validation
  | Errors.Eval_error _ -> K_eval
  | Errors.Set_conflict _ -> K_set_conflict
  | Errors.Delete_dangling _ -> K_delete_dangling
  | Errors.Statement_dangling _ -> K_statement_dangling
  | Errors.Update_error _ -> K_update
  | Errors.Internal_error _ -> K_internal

let kind_name = function
  | K_parse -> "parse"
  | K_validation -> "validation"
  | K_eval -> "eval"
  | K_set_conflict -> "set-conflict"
  | K_delete_dangling -> "delete-dangling"
  | K_statement_dangling -> "statement-dangling"
  | K_update -> "update"
  | K_internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Configurations                                                     *)
(* ------------------------------------------------------------------ *)

(* All five oracles validate under Permissive: the generator emits the
   full repertoire (MERGE ALL / SAME and, after rewriting, legacy
   MERGE), and the comparison must isolate *semantic* differences, not
   dialect gatekeeping. *)
let legacy_config =
  { Config.cypher9 with dialect = Cypher_ast.Validate.Permissive;
    planner = Config.Off }

let revised_naive = { Config.permissive with planner = Config.Off }
let revised_planned = { Config.permissive with planner = Config.On }

(** Raised when a generated statement's printed text does not parse:
    a fault of the printer or the generator, never a verdict on the
    engine.  No oracle passes on it, and the shrinker keeps no candidate
    for it. *)
exception Harness_error of string

(** [text ?prefix q] is the printed text of [q] under [prefix] (default
    none), checked to parse back.
    @raise Harness_error when it does not. *)
let text ?(prefix = Parser.Plain) q =
  let src = Parser.statement_to_string (prefix, q, []) in
  match Parser.parse_statement_params src with
  | Ok _ -> src
  | Error e ->
      raise
        (Harness_error
           (Printf.sprintf "printed statement %S does not parse: %s" src
              (Parser.error_to_string e)))

let run ?prefix config g q = Api.run_string ~config g (text ?prefix q)

(* ------------------------------------------------------------------ *)
(* Oracle 1: print/parse round-trip                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip q : (unit, string) result =
  let printed = Pretty.query_to_string q in
  match Parser.parse_string printed with
  | Error e ->
      Error
        (Printf.sprintf "re-parse of %S failed: %s" printed
           (Parser.error_to_string e))
  | Ok q' ->
      if q = q' then Ok ()
      else Error (Printf.sprintf "round-trip changed the AST of %S" printed)

(* ------------------------------------------------------------------ *)
(* Oracle 2: planner-on vs planner-off                                *)
(* ------------------------------------------------------------------ *)

let result_summary (r : Api.result) =
  Fmt.str "columns=[%s] rows=%d"
    (String.concat "," (Table.columns r.Api.r_table))
    (Table.row_count r.Api.r_table)

let planner_equivalence ?(match_mode = Config.Isomorphic) g q :
    (unit, string) result =
  let on = run (Config.with_match_mode match_mode revised_planned) g q in
  let off = run (Config.with_match_mode match_mode revised_naive) g q in
  match (on, off) with
  | Error e1, Error e2 ->
      if error_kind e1 = error_kind e2 then Ok ()
      else
        Error
          (Fmt.str "planner-on fails with %s but planner-off with %s"
             (kind_name (error_kind e1))
             (kind_name (error_kind e2)))
  | Ok _, Error e ->
      Error (Fmt.str "planner-off fails (%s) where planner-on succeeds"
               (Errors.to_string e))
  | Error e, Ok _ ->
      Error (Fmt.str "planner-on fails (%s) where planner-off succeeds"
               (Errors.to_string e))
  | Ok o1, Ok o2 ->
      if not (Iso.isomorphic o1.Api.r_graph o2.Api.r_graph) then
        Error "planner-on and planner-off result graphs are not isomorphic"
      else if query_is_update q || has_skip_limit q then
        (* created entity ids (and, under SKIP/LIMIT, the surviving tie
           rows) may legitimately differ; compare shapes *)
        if
          Table.columns o1.Api.r_table = Table.columns o2.Api.r_table
          && Table.row_count o1.Api.r_table = Table.row_count o2.Api.r_table
        then Ok ()
        else
          Error
            (Fmt.str "planner tables differ in shape: %s vs %s"
               (result_summary o1) (result_summary o2))
      else if Table.equal_as_bags o1.Api.r_table o2.Api.r_table then Ok ()
      else
        Error
          (Fmt.str "planner changed the result row set: %s vs %s"
             (result_summary o1) (result_summary o2))

(* ------------------------------------------------------------------ *)
(* Oracle 5: update counters vs structural graph diff                 *)
(* ------------------------------------------------------------------ *)

(** Recomputes {!Cypher_core.Stats.t} from first principles: a
    structural diff of the input and output graphs, knowing nothing
    about what the statement did.  Entity ids are never reused (the
    id supply only grows), so id-set differences are exactly the
    creations/deletions; created entities contribute all their
    properties and labels to [props_set] and [labels_added], surviving
    entities their net per-key and per-label changes.  A full scan of
    both graphs, deliberately independent of the engine's {!Stats.diff},
    which walks only the trie paths the two graphs do not share — the
    redundancy is the oracle. *)
let graph_diff (g_in : Graph.t) (g_out : Graph.t) : Cypher_core.Stats.t =
  let node_tbl = Hashtbl.create 16 and rel_tbl = Hashtbl.create 16 in
  List.iter (fun (n : Graph.node) -> Hashtbl.replace node_tbl n.Graph.n_id n)
    (Graph.nodes g_in);
  List.iter (fun (r : Graph.rel) -> Hashtbl.replace rel_tbl r.Graph.r_id r)
    (Graph.rels g_in);
  let props_set = ref 0 and props_removed = ref 0 in
  let labels_added = ref 0 and labels_removed = ref 0 in
  let diff_props before after =
    let keys =
      List.sort_uniq compare
        (List.map fst (Props.bindings before) @ List.map fst (Props.bindings after))
    in
    List.iter
      (fun k ->
        let b = Props.get before k and a = Props.get after k in
        if not (Value.equal_strict b a) then
          if Value.is_null a then incr props_removed else incr props_set)
      keys
  in
  let nodes_created = ref 0 and nodes_deleted = ref 0 in
  List.iter
    (fun (n : Graph.node) ->
      match Hashtbl.find_opt node_tbl n.Graph.n_id with
      | None ->
          incr nodes_created;
          props_set := !props_set + List.length (Props.bindings n.Graph.n_props);
          labels_added := !labels_added + Sset.cardinal n.Graph.labels
      | Some old ->
          diff_props old.Graph.n_props n.Graph.n_props;
          labels_added :=
            !labels_added + Sset.cardinal (Sset.diff n.Graph.labels old.Graph.labels);
          labels_removed :=
            !labels_removed + Sset.cardinal (Sset.diff old.Graph.labels n.Graph.labels))
    (Graph.nodes g_out);
  List.iter
    (fun (n : Graph.node) ->
      if not (Graph.has_node g_out n.Graph.n_id) then incr nodes_deleted)
    (Graph.nodes g_in);
  let rels_created = ref 0 and rels_deleted = ref 0 in
  List.iter
    (fun (r : Graph.rel) ->
      match Hashtbl.find_opt rel_tbl r.Graph.r_id with
      | None ->
          incr rels_created;
          props_set := !props_set + List.length (Props.bindings r.Graph.r_props)
      | Some old -> diff_props old.Graph.r_props r.Graph.r_props)
    (Graph.rels g_out);
  List.iter
    (fun (r : Graph.rel) ->
      if not (Graph.has_rel g_out r.Graph.r_id) then incr rels_deleted)
    (Graph.rels g_in);
  {
    Cypher_core.Stats.empty with
    nodes_created = !nodes_created;
    nodes_deleted = !nodes_deleted;
    rels_created = !rels_created;
    rels_deleted = !rels_deleted;
    props_set = !props_set;
    props_removed = !props_removed;
    labels_added = !labels_added;
    labels_removed = !labels_removed;
  }

(** Oracle 5: the engine's update counters, its own diff of the input
    and output graphs, must equal {!graph_diff}'s full scan, under both
    the revised and the legacy regime, and [rows] must equal the output
    table's row count.  A failing statement reports nothing to check. *)
let counters g q : (unit, string) result =
  let module Stats = Cypher_core.Stats in
  let check_one name config q =
    match run config g q with
    | Error _ -> Ok ()
    | Ok r ->
        let stats = r.Api.r_stats in
        let diff = graph_diff g r.Api.r_graph in
        (* merge_* and rows are execution facts, invisible to the diff *)
        let expected =
          {
            diff with
            Stats.merge_matched = stats.Stats.merge_matched;
            merge_created = stats.Stats.merge_created;
            rows = stats.Stats.rows;
          }
        in
        if not (Stats.equal stats expected) then
          Error
            (Fmt.str "%s counters disagree with the graph diff: %s vs diff %s"
               name (Stats.to_string stats) (Stats.to_string expected))
        else if stats.Stats.rows <> Table.row_count r.Api.r_table then
          Error
            (Fmt.str "%s row counter %d but table has %d row(s)" name
               stats.Stats.rows
               (Table.row_count r.Api.r_table))
        else Ok ()
  in
  match check_one "revised" revised_planned q with
  | Error _ as e -> e
  | Ok () -> check_one "legacy" legacy_config (legacy_query q)

(* ------------------------------------------------------------------ *)
(* Oracle 3: legacy vs revised divergence classification              *)
(* ------------------------------------------------------------------ *)

(** The sanctioned ways the two semantics may differ — the paper's
    catalogue of legacy defects (Sections 3–5). *)
type category =
  | Set_race  (** per-record SET races; atomic run raises Set_conflict *)
  | Own_writes  (** legacy clauses re-read their own writes *)
  | Merge_interference  (** legacy MERGE matches what earlier records created *)
  | Dangling_delete  (** force-delete vs strict delete-with-check *)

let category_name = function
  | Set_race -> "set-race"
  | Own_writes -> "own-writes"
  | Merge_interference -> "merge-interference"
  | Dangling_delete -> "dangling-delete"

let all_categories = [ Set_race; Own_writes; Merge_interference; Dangling_delete ]

(** How a case passed an oracle: every oracle but {!divergence} only
    [Held]; a divergence pass says whether the two regimes agreed or
    differed in a sanctioned way. *)
type pass = Held | Agree | Classified of category

let divergence g q : (pass, string) result =
  let f = query_features q in
  let legacy = run legacy_config g (legacy_query q) in
  let revised = run revised_naive g q in
  let classify detail =
    match (legacy, revised) with
    | _, Error (Errors.Set_conflict _) -> Ok (Classified Set_race)
    | Error (Errors.Statement_dangling _), _
    | _, Error (Errors.Delete_dangling _) ->
        Ok (Classified Dangling_delete)
    | _ when f.has_delete -> Ok (Classified Dangling_delete)
    | _ when f.has_merge -> Ok (Classified Merge_interference)
    | _ when f.has_set -> Ok (Classified Own_writes)
    | _ -> Error detail
  in
  match (legacy, revised) with
  | Error e1, Error e2 when error_kind e1 = error_kind e2 -> Ok Agree
  | Error e1, Error e2 ->
      classify
        (Fmt.str "legacy fails with %s, revised with %s"
           (kind_name (error_kind e1))
           (kind_name (error_kind e2)))
  | Ok _, Error e ->
      classify (Fmt.str "only revised fails: %s" (Errors.to_string e))
  | Error e, Ok _ ->
      classify (Fmt.str "only legacy fails: %s" (Errors.to_string e))
  | Ok o1, Ok o2 ->
      let same_graph = Iso.isomorphic o1.Api.r_graph o2.Api.r_graph in
      let same_table =
        if query_is_update q then
          (* created ids may differ between regimes even when the result
             is semantically the same; compare table shapes only *)
          Table.columns o1.Api.r_table = Table.columns o2.Api.r_table
          && Table.row_count o1.Api.r_table = Table.row_count o2.Api.r_table
        else Table.equal_as_bags o1.Api.r_table o2.Api.r_table
      in
      if same_graph && same_table then Ok Agree
      else
        classify
          (Fmt.str "results differ (%s vs %s; graphs %s)"
             (result_summary o1) (result_summary o2)
             (if same_graph then "isomorphic" else "differ"))

(* ------------------------------------------------------------------ *)
(* Oracle 4: result-graph well-formedness and index agreement         *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let check b detail = if b then Ok () else Error (detail ())

let iter_check f l =
  List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) l

let ids_of_rels rels = List.map (fun (r : Graph.rel) -> r.Graph.r_id) rels

(** Checks every adjacency view of every node of [g] — untyped and
    typed id sets, incident relationships and degree — against a scan
    of [g]'s relationships, in id order.  The views are derived from
    one index; a brute-force scan, not another index, is their
    reference. *)
let adjacency_matches_scan (g : Graph.t) : (unit, string) result =
  (* node -> its relationships, newest first, per direction *)
  let out_scan = Hashtbl.create 64 and in_scan = Hashtbl.create 64 in
  Graph.fold_rels
    (fun r () ->
      Hashtbl.add out_scan r.Graph.src r;
      Hashtbl.add in_scan r.Graph.tgt r)
    g ();
  let scanned tbl id keep =
    List.rev (List.filter keep (Hashtbl.find_all tbl id)) |> ids_of_rels
  in
  let types = List.map fst (Graph.type_histogram g) in
  iter_check
    (fun id ->
      let view what expected actual =
        check (expected = actual) (fun () ->
            Fmt.str "%s of node %d is [%s], a scan gives [%s]" what id
              (String.concat "; " (List.map string_of_int actual))
              (String.concat "; " (List.map string_of_int expected)))
      in
      let all _ = true in
      let out_ids = scanned out_scan id all and in_ids = scanned in_scan id all in
      let incident = List.sort_uniq Int.compare (out_ids @ in_ids) in
      let* () = view "out_rel_ids" out_ids (Ids.elements (Graph.out_rel_ids g id)) in
      let* () = view "in_rel_ids" in_ids (Ids.elements (Graph.in_rel_ids g id)) in
      let* () = view "out_rels" out_ids (ids_of_rels (Graph.out_rels g id)) in
      let* () = view "in_rels" in_ids (ids_of_rels (Graph.in_rels g id)) in
      let* () = view "incident_rels" incident (ids_of_rels (Graph.incident_rels g id)) in
      let* () = view "degree" [ List.length incident ] [ Graph.degree g id ] in
      iter_check
        (fun ty ->
          let typed (r : Graph.rel) = r.Graph.r_type = ty in
          let* () =
            view (":" ^ ty ^ " out bucket") (scanned out_scan id typed)
              (Ids.elements (Graph.out_rel_ids_typed g id ty))
          in
          view (":" ^ ty ^ " in bucket") (scanned in_scan id typed)
            (Ids.elements (Graph.in_rel_ids_typed g id ty)))
        types)
    (Graph.node_ids g)

(** Checks the store's compact leaves: each id-keyed map is a trie of
    the shape its keys decide ({!Cypher_graph.Idmap.check}), every id
    set [g] stores is in the form its contents decide, carrying a
    cardinal a recount confirms, and every property map has strictly
    ascending keys and no [null] value. *)
let representation_ok (g : Graph.t) : (unit, string) result =
  let* () =
    List.fold_left
      (fun acc (field, shape) ->
        let* () = acc in
        Result.map_error (fun e -> Fmt.str "%s: %s" field e) shape)
      (Ok ()) (Graph.check_shapes g)
  in
  let* () =
    Graph.fold_id_sets
      (fun where s acc ->
        let* () = acc in
        let recount = List.length (Ids.elements s) in
        check
          (Ids.is_canonical s && Ids.cardinal s = recount)
          (fun () ->
            Fmt.str "%s {%s} (cardinal %d, %d ids) is not canonical" where
              (String.concat ", " (List.map string_of_int (Ids.elements s)))
              (Ids.cardinal s) recount))
      g (Ok ())
  in
  let props what id p acc =
    let* () = acc in
    check (Props.is_canonical p) (fun () ->
        Fmt.str "property map of %s %d %a is not canonical" what id Props.pp p)
  in
  let* () =
    Graph.fold_nodes (fun n -> props "node" n.Graph.n_id n.Graph.n_props) g (Ok ())
  in
  Graph.fold_rels (fun r -> props "relationship" r.Graph.r_id r.Graph.r_props) g (Ok ())

(** Checks the per-type counts [g] maintains against a count over its
    relationships; [what] prefixes the report. *)
let type_counts_match_scan what (g : Graph.t) : (unit, string) result =
  let scanned =
    Graph.fold_rels
      (fun r m -> Smap.update r.Graph.r_type (fun c -> Some (1 + Option.value c ~default:0)) m)
      g Smap.empty
  in
  let pp = Fmt.(list ~sep:(any ", ") (pair ~sep:(any ": ") string int)) in
  check
    (Graph.type_histogram g = Smap.bindings scanned
    && Smap.for_all (fun ty n -> Graph.type_count g ty = n) scanned)
    (fun () ->
      Fmt.str "%stype counts [%a], a scan gives [%a]" what pp (Graph.type_histogram g) pp
        (Smap.bindings scanned))

(** Compares every maintained index of [g] against [reference], a graph
    freshly rebuilt from [g]'s entity lists: any disagreement means the
    incremental maintenance of some index drifted during the update. *)
let indexes_agree (g : Graph.t) (reference : Graph.t) : (unit, string) result =
  let* () =
    let counted = Graph.fold_node_ids (fun _ n -> n + 1) g 0 in
    check
      (Graph.node_count g = counted && Graph.node_count reference = counted)
      (fun () ->
        Fmt.str "node count %d (rebuild: %d) disagrees with the %d nodes stored"
          (Graph.node_count g) (Graph.node_count reference) counted)
  in
  let* () =
    check
      (Graph.label_histogram g = Graph.label_histogram reference)
      (fun () -> "label histogram disagrees with a from-scratch rebuild")
  in
  let* () = type_counts_match_scan "" g in
  let* () = type_counts_match_scan "rebuild: " reference in
  let* () =
    iter_check
      (fun (l, _) ->
        check
          (Graph.nodes_with_label g l = Graph.nodes_with_label reference l)
          (fun () -> Fmt.str "label index for %s disagrees with rebuild" l))
      (Graph.label_histogram g)
  in
  let* () = adjacency_matches_scan g in
  (* property indexes: the maintained index must agree both with the
     rebuilt index and with a direct scan over the node list *)
  iter_check
    (fun (label, key) ->
      let probe_values =
        Value.Null :: Value.Int 12345
        :: List.filter_map
             (fun (n : Graph.node) ->
               match Props.get n.Graph.n_props key with
               | Value.Null -> None
               | v -> Some v)
             (Graph.nodes g)
      in
      iter_check
        (fun v ->
          let scanned =
            if Value.is_null v then []
            else
              List.filter_map
                (fun (n : Graph.node) ->
                  if
                    Sset.mem label n.Graph.labels
                    && Value.equal_strict (Props.get n.Graph.n_props key) v
                  then Some n.Graph.n_id
                  else None)
                (Graph.nodes g)
          in
          let maintained = Graph.nodes_with_prop g ~label ~key v in
          let rebuilt = Graph.nodes_with_prop reference ~label ~key v in
          let* () =
            check
              (maintained = Some scanned)
              (fun () ->
                Fmt.str "property index (%s,%s) at %s disagrees with a scan"
                  label key (Value.to_string v))
          in
          let* () =
            check (maintained = rebuilt) (fun () ->
                Fmt.str "property index (%s,%s) at %s disagrees with rebuild"
                  label key (Value.to_string v))
          in
          check
            (Graph.count_with_prop g ~label ~key v = Some (List.length scanned))
            (fun () ->
              Fmt.str "property index count (%s,%s) at %s is wrong" label key
                (Value.to_string v)))
        probe_values)
    (Graph.prop_index_keys g)

(* ------------------------------------------------------------------ *)
(* Oracle 6: durability / crash-recovery fault injection              *)
(* ------------------------------------------------------------------ *)

module Session = Cypher_core.Session
module Wal = Cypher_storage.Wal
module Snapshot = Cypher_storage.Snapshot
module Recovery = Cypher_storage.Recovery

let durability_config = Config.permissive

(** [dump_roundtrip g] checks the {!Cypher_graph.Dump} contract directly:
    the snapshot image of [g] (indexes + dump script) reloads to an
    isomorphic graph with the same registered indexes.  The reload
    decodes the script ({!Cypher_graph.Dump.of_cypher}); executing the
    same script through {!Api.run_program} on the index-registered empty
    graph is the reference it must match exactly — same image, same
    entity ids, same [next_id] — and re-imaging the reload is a
    fixpoint. *)
let dump_roundtrip (g : Graph.t) : (unit, string) result =
  match Snapshot.parse (Snapshot.to_string g) with
  | Error e -> Error ("snapshot image does not reload: " ^ e)
  | Ok g' ->
      let* () =
        check (Iso.isomorphic g g') (fun () ->
            "snapshot reload is not isomorphic to the original graph")
      in
      let* () =
        check
          (Graph.prop_index_keys g = Graph.prop_index_keys g')
          (fun () -> "snapshot reload lost registered property indexes")
      in
      let indexed =
        List.fold_left
          (fun acc (label, key) -> Graph.add_prop_index ~label ~key acc)
          Graph.empty (Graph.prop_index_keys g)
      in
      let* reference =
        match Cypher_graph.Dump.to_cypher g with
        | "" -> Ok indexed
        | script -> (
            match Api.run_program ~config:durability_config indexed script with
            | Ok (r, _) -> Ok r
            | Error e ->
                Error ("dump script does not execute: " ^ Errors.to_string e))
      in
      let img = Snapshot.to_string g' in
      let* () =
        check
          (img = Snapshot.to_string reference
          && Graph.node_ids g' = Graph.node_ids reference
          && Graph.rel_ids g' = Graph.rel_ids reference
          && Graph.next_id g' = Graph.next_id reference)
          (fun () -> "decoded snapshot differs from executing its script")
      in
      check
        (Result.map Snapshot.to_string (Snapshot.parse img) = Ok img)
        (fun () -> "re-imaging a reloaded snapshot is not a fixpoint")

let corrupt_byte s i =
  String.mapi
    (fun j c -> if j = i then Char.chr ((Char.code c + 1) land 0xff) else c)
    s

(** Oracle 6.  Runs [q :: extra] through a journaling session on [g],
    journalling into an in-memory buffer, then fault-injects the
    snapshot image and the journal bytes exhaustively.  Every byte-level
    truncation and every single-byte corruption of the journal must be
    detected at the right offset and recover to a statement-boundary
    graph; every single-byte corruption of the snapshot must be
    rejected.  Nothing in the storage stack may raise. *)
let durability ?(extra = []) (g : Graph.t) q : (unit, string) result =
  let snapshot_img = Snapshot.to_string g in
  let* () = dump_roundtrip g in
  let* base =
    Result.map_error (fun e -> "snapshot image does not reload: " ^ e)
      (Snapshot.parse snapshot_img)
  in
  (* run the workload, journalling in memory; failed statements are part
     of the workload (they must journal nothing) *)
  let wal_buf = Buffer.create 256 in
  let session = Session.create ~config:durability_config g in
  Session.set_journal session
    (Some (List.iter (fun e -> Buffer.add_string wal_buf (Wal.encode e))));
  let boundaries = ref [ g ] in
  List.iter
    (fun q ->
      let before = Buffer.length wal_buf in
      (match Session.run session (text q) with Ok _ | Error _ -> ());
      if Buffer.length wal_buf > before then
        boundaries := Session.graph session :: !boundaries)
    (q :: extra);
  let live = Session.graph session in
  let wal = Buffer.contents wal_buf in
  let len = String.length wal in
  let boundaries = Array.of_list (List.rev !boundaries) in
  let records, clean_len, torn0 = Wal.scan_string wal in
  let n = List.length records in
  let* () =
    check
      (torn0 = None && clean_len = len)
      (fun () -> "freshly written journal does not scan cleanly")
  in
  let* () =
    check
      (n = Array.length boundaries - 1)
      (fun () ->
        Fmt.str "journal has %d record(s) but the session journalled %d" n
          (Array.length boundaries - 1))
  in
  (* full recovery reproduces the live graph *)
  let* () =
    match Recovery.recover_strings ~snapshot:snapshot_img ~wal () with
    | Error e -> Error ("full recovery failed: " ^ e)
    | Ok r ->
        let* () =
          check (r.Recovery.torn = None) (fun () ->
              "full recovery reported a torn tail on an undamaged journal")
        in
        check
          (Iso.isomorphic r.Recovery.graph live)
          (fun () -> "recovered graph is not isomorphic to the live graph")
  in
  (* replay determinism: every record-count prefix lands exactly on the
     corresponding statement-boundary graph *)
  let* () =
    iter_check
      (fun k ->
        let prefix = List.filteri (fun i _ -> i < k) records in
        match Recovery.replay base prefix with
        | Error e -> Error (Fmt.str "replay of %d-record prefix failed: %s" k e)
        | Ok gk ->
            check
              (Iso.isomorphic gk boundaries.(k))
              (fun () ->
                Fmt.str
                  "replay of %d-record prefix is not isomorphic to the \
                   statement boundary"
                  k))
      (List.init (n + 1) Fun.id)
  in
  (* byte offset where record i starts; offsets.(n) = total length *)
  let offsets = Array.make (n + 1) 0 in
  List.iteri
    (fun i r -> offsets.(i + 1) <- offsets.(i) + String.length (Wal.encode r))
    records;
  let* () =
    check (offsets.(n) = len) (fun () -> "re-encoded records do not tile the journal")
  in
  (* the record a byte offset falls in *)
  let record_of_byte i =
    let k = ref 0 in
    while offsets.(!k + 1) <= i do incr k done;
    !k
  in
  (* truncation at every byte: the scan must keep exactly the whole
     records before the cut and report the tear at the right offset *)
  let* () =
    iter_check
      (fun cut ->
        let records', clean', torn' = Wal.scan_string (String.sub wal 0 cut) in
        (* records fully contained in the first [cut] bytes *)
        let k = ref 0 in
        while !k < n && offsets.(!k + 1) <= cut do incr k done;
        let k = !k in
        let boundary = offsets.(k) = cut in
        let* () =
          check
            (List.length records' = k)
            (fun () ->
              Fmt.str "truncation at %d kept %d record(s), expected %d" cut
                (List.length records') k)
        in
        let* () =
          check (clean' = offsets.(k)) (fun () ->
              Fmt.str "truncation at %d: clean prefix %d, expected %d" cut
                clean' offsets.(k))
        in
        match (torn', boundary) with
        | None, true -> Ok ()
        | Some t, false ->
            check (t.Wal.t_offset = offsets.(k)) (fun () ->
                Fmt.str "truncation at %d reported the tear at %d, expected %d"
                  cut t.Wal.t_offset offsets.(k))
        | None, false ->
            Error (Fmt.str "truncation at %d (mid-record) went unreported" cut)
        | Some t, true ->
            Error
              (Fmt.str
                 "truncation at %d (a record boundary) falsely reported: %s"
                 cut t.Wal.t_reason))
      (List.init len Fun.id)
  in
  (* corruption of every journal byte: records before the damaged one
     survive untouched, the damaged one is rejected at its offset *)
  let* () =
    iter_check
      (fun i ->
        let records', clean', torn' = Wal.scan_string (corrupt_byte wal i) in
        let k = record_of_byte i in
        let* () =
          check
            (List.length records' = k && clean' = offsets.(k))
            (fun () ->
              Fmt.str
                "corrupting byte %d kept %d record(s) / %d bytes, expected %d \
                 / %d"
                i (List.length records') clean' k offsets.(k))
        in
        match torn' with
        | Some t when t.Wal.t_offset = offsets.(k) -> Ok ()
        | Some t ->
            Error
              (Fmt.str "corrupting byte %d reported offset %d, expected %d" i
                 t.Wal.t_offset offsets.(k))
        | None -> Error (Fmt.str "corrupting byte %d went undetected" i))
      (List.init len Fun.id)
  in
  (* corruption of every snapshot byte must be rejected outright *)
  iter_check
    (fun i ->
      match Snapshot.parse (corrupt_byte snapshot_img i) with
      | Error _ -> Ok ()
      | Ok _ ->
          Error (Fmt.str "corrupting snapshot byte %d went undetected" i))
    (List.init (String.length snapshot_img) Fun.id)

(* ------------------------------------------------------------------ *)
(* Oracle 7: prepared-statement / parameter equivalence               *)
(* ------------------------------------------------------------------ *)

let value_of_lit = function
  | L_null -> Value.Null
  | L_bool b -> Value.Bool b
  | L_int i -> Value.Int i
  | L_float f -> Value.Float f
  | L_string s -> Value.String s

(** [parameterize q] lifts the literals of [q] out into parameter
    bindings [$p0..$pn], returning the rewritten query and the binding
    map.  Literals in unaliased projection items stay put — the auto
    column name is the printed expression, and [$p0] as a header would
    be an observable (and sanctioned) difference, not a bug. *)
let parameterize q =
  let bindings = ref Smap.empty in
  let counter = ref 0 in
  let bind l =
    let name = Printf.sprintf "p%d" !counter in
    incr counter;
    bindings := Smap.add name (value_of_lit l) !bindings;
    Param name
  in
  let rec expr = function
    | Lit l -> bind l
    | (Var _ | Param _) as e -> e
    | Prop (e, k) -> Prop (expr e, k)
    | Has_labels (e, ls) -> Has_labels (expr e, ls)
    | Not e -> Not (expr e)
    | And (a, b) -> And (expr a, expr b)
    | Or (a, b) -> Or (expr a, expr b)
    | Xor (a, b) -> Xor (expr a, expr b)
    | Cmp (op, a, b) -> Cmp (op, expr a, expr b)
    | Bin (op, a, b) -> Bin (op, expr a, expr b)
    | Neg e -> Neg (expr e)
    | Is_null e -> Is_null (expr e)
    | Is_not_null e -> Is_not_null (expr e)
    | List_lit es -> List_lit (List.map expr es)
    | Map_lit kvs -> Map_lit (List.map (fun (k, e) -> (k, expr e)) kvs)
    | Index (e, i) -> Index (expr e, expr i)
    | Slice (e, a, b) -> Slice (expr e, Option.map expr a, Option.map expr b)
    | Str_op (op, a, b) -> Str_op (op, expr a, expr b)
    | In_list (a, b) -> In_list (expr a, expr b)
    | Fn (f, es) -> Fn (f, List.map expr es)
    | Agg (k, d, e) -> Agg (k, d, Option.map expr e)
    | Case c ->
        Case
          {
            case_operand = Option.map expr c.case_operand;
            case_whens =
              List.map (fun (w, t) -> (expr w, expr t)) c.case_whens;
            case_default = Option.map expr c.case_default;
          }
    | List_comp c ->
        List_comp
          {
            c with
            comp_source = expr c.comp_source;
            comp_where = Option.map expr c.comp_where;
            comp_body = Option.map expr c.comp_body;
          }
    | Quantifier c ->
        Quantifier
          { c with q_source = expr c.q_source; q_pred = expr c.q_pred }
    | Reduce c ->
        Reduce
          {
            c with
            red_init = expr c.red_init;
            red_source = expr c.red_source;
            red_body = expr c.red_body;
          }
    | Pattern_pred ps -> Pattern_pred (List.map pattern ps)
    | Pattern_comp c ->
        Pattern_comp
          {
            pc_pattern = pattern c.pc_pattern;
            pc_where = Option.map expr c.pc_where;
            pc_body = expr c.pc_body;
          }
    | Shortest_path c ->
        Shortest_path { c with sp_pattern = pattern c.sp_pattern }
  and props ps = List.map (fun (k, e) -> (k, expr e)) ps
  and node_pat np = { np with np_props = props np.np_props }
  and rel_pat rp = { rp with rp_props = props rp.rp_props }
  and pattern p =
    {
      p with
      pat_start = node_pat p.pat_start;
      pat_steps =
        List.map (fun (r, n) -> (rel_pat r, node_pat n)) p.pat_steps;
    }
  in
  let set_item = function
    | Set_prop (e, k, v) -> Set_prop (expr e, k, expr v)
    | Set_all_props (e, v) -> Set_all_props (expr e, expr v)
    | Set_merge_props (e, v) -> Set_merge_props (expr e, expr v)
    | Set_labels (e, ls) -> Set_labels (expr e, ls)
  in
  let remove_item = function
    | Rem_prop (e, k) -> Rem_prop (expr e, k)
    | Rem_labels (e, ls) -> Rem_labels (expr e, ls)
  in
  let proj_item it =
    match it.item_alias with
    | None -> it (* would change the auto column name *)
    | Some _ -> { it with item_expr = expr it.item_expr }
  in
  let projection p =
    {
      p with
      proj_items = List.map proj_item p.proj_items;
      proj_order =
        List.map (fun s -> { s with sort_expr = expr s.sort_expr }) p.proj_order;
      proj_skip = Option.map expr p.proj_skip;
      proj_limit = Option.map expr p.proj_limit;
      proj_where = Option.map expr p.proj_where;
    }
  in
  let rec clause = function
    | Match m ->
        Match
          {
            m with
            patterns = List.map pattern m.patterns;
            where = Option.map expr m.where;
          }
    | Unwind u -> Unwind { u with source = expr u.source }
    | With p -> With (projection p)
    | Return p -> Return (projection p)
    | Create ps -> Create (List.map pattern ps)
    | Set items -> Set (List.map set_item items)
    | Remove items -> Remove (List.map remove_item items)
    | Delete d -> Delete { d with targets = List.map expr d.targets }
    | Merge m ->
        Merge
          {
            m with
            patterns = List.map pattern m.patterns;
            on_create = List.map set_item m.on_create;
            on_match = List.map set_item m.on_match;
          }
    | Foreach f ->
        Foreach
          {
            f with
            fe_source = expr f.fe_source;
            fe_body = List.map clause f.fe_body;
          }
  in
  let rec query q =
    {
      clauses = List.map clause q.clauses;
      union = Option.map (fun (all, q') -> (all, query q')) q.union;
    }
  in
  let q' = query q in
  (q', !bindings)

(** Oracle 7.  Lifts every (eligible) literal of the statement into a
    [$p0..$pn] binding, compiles the rewritten text once with
    {!Api.prepare}, executes it twice with the extracted bindings —
    the second execution is served by the prepared statement's plan
    memo — and requires both executions to be {e byte-identical} to the
    direct (literal) run: same rendered graph, same rendered table,
    same counters, same error.  This pins down the whole prepared
    pipeline at once: parameter evaluation, the strict pre-execution
    bound check, and plan reuse. *)
let prepared (g : Graph.t) q : (unit, string) result =
  let q', params = parameterize q in
  let src = text q' in
  let direct = run revised_planned g q in
  let compare_run ~label (run : (Api.result, Errors.t) result) =
    match (direct, run) with
    | Error e1, Error e2 ->
        if Errors.to_string e1 = Errors.to_string e2 then Ok ()
        else
          Error
            (Fmt.str "%s error differs: direct %S vs prepared %S" label
               (Errors.to_string e1) (Errors.to_string e2))
    | Ok _, Error e ->
        Error
          (Fmt.str "%s fails (%s) where the direct run succeeds" label
             (Errors.to_string e))
    | Error e, Ok _ ->
        Error
          (Fmt.str "direct run fails (%s) where %s succeeds"
             (Errors.to_string e) label)
    | Ok r1, Ok r2 ->
        if Graph.to_string r1.Api.r_graph <> Graph.to_string r2.Api.r_graph
        then Error (label ^ " result graph is not byte-identical")
        else if
          Table.to_string r1.Api.r_table <> Table.to_string r2.Api.r_table
        then
          Error
            (Fmt.str "%s result table differs: %s vs %s" label
               (result_summary r1) (result_summary r2))
        else if not (Cypher_core.Stats.equal r1.Api.r_stats r2.Api.r_stats)
        then
          Error
            (Fmt.str "%s counters differ: %s vs %s" label
               (Cypher_core.Stats.to_string r1.Api.r_stats)
               (Cypher_core.Stats.to_string r2.Api.r_stats))
        else Ok ()
  in
  match Api.prepare ~config:revised_planned src with
  | Error e -> (
      (* the rewrite cannot introduce a compile error the direct run
         does not have *)
      match direct with
      | Error e' when error_kind e = error_kind e' -> Ok ()
      | _ ->
          Error
            (Fmt.str "prepare of %S failed: %s" src (Errors.to_string e)))
  | Ok p -> (
      match compare_run ~label:"first execute" (Api.execute p params g) with
      | Error _ as e -> e
      | Ok () ->
          compare_run ~label:"second (memoized) execute"
            (Api.execute p params g))

(* Three disjoint copies of [g].  A generated graph has at most 6 nodes,
   too few for a stored id set to outgrow the array form
   ({!Ids.small_max}); on three copies a statement's creates and deletes
   move label, type and property-index sets across it both ways.  The
   copies lie [stride] ids apart, a multiple of 1 056 = 1 024 + 32, so
   copy [c] of an id sits in another 32-id bitmap and another 1 024-id
   trie node than copy [c - 1]: the larger sets then span several
   bitmaps and trie paths, as the ids of a real store do. *)
let stride g = 1056 * (1 + (Graph.next_id g / 1056))

let tripled g =
  let stride = stride g in
  let copy k = List.init 3 (fun c -> k + (c * stride)) in
  let nodes =
    List.concat_map
      (fun (n : Graph.node) ->
        List.map (fun n_id -> { n with Graph.n_id }) (copy n.Graph.n_id))
      (Graph.nodes g)
  in
  let rels =
    List.concat_map
      (fun (r : Graph.rel) ->
        List.mapi
          (fun c r_id ->
            { r with Graph.r_id; src = r.Graph.src + (c * stride); tgt = r.Graph.tgt + (c * stride) })
          (copy r.Graph.r_id))
      (Graph.rels g)
  in
  Graph.rebuild ~prop_indexes:(Graph.prop_index_keys g)
    ~next_id:((2 * stride) + Graph.next_id g)
    nodes rels

let wellformed_on g q : (unit, string) result =
  match run revised_planned g q with
  | Error _ -> Ok () (* failed statements leave no result graph to audit *)
  | Ok o ->
      let g' = o.Api.r_graph in
      let* () =
        check (Graph.is_wellformed g') (fun () ->
            Fmt.str "result graph has %d dangling relationship(s)"
              (List.length (Graph.dangling_rels g')))
      in
      let reference =
        Graph.rebuild
          ~prop_indexes:(Graph.prop_index_keys g')
          ~next_id:(Graph.next_id g')
          (Graph.nodes g') (Graph.rels g')
      in
      let* () = representation_ok g' in
      let* () = representation_ok reference in
      indexes_agree g' reference

let wellformed g q : (unit, string) result =
  let* () = wellformed_on g q in
  Result.map_error (fun e -> "on three copies of the graph: " ^ e) (wellformed_on (tripled g) q)

(* ------------------------------------------------------------------ *)
(* Oracle 8: concurrent workloads / linearizability                   *)
(* ------------------------------------------------------------------ *)

module Shared = Cypher_server.Shared
module Service = Cypher_server.Service

let concurrent_config = Config.permissive

(* the serial reference: one actor after another, statements in order,
   statement-level skip-on-error — exactly the discipline the server's
   committer guarantees for the commit order that actually happened *)
let serial_apply g actors =
  List.fold_left
    (fun g a ->
      let stmts = match a with Gen.Auto q -> [ q ] | Gen.Tx qs -> qs in
      List.fold_left
        (fun g q ->
          match run concurrent_config g q with
          | Ok o -> o.Api.r_graph
          | Error _ -> g)
        g stmts)
    g actors

(* the version an [OK] terminator carries: every commit the server
   applies takes the next version, so the versions order the commits *)
let committed_version answer =
  match List.rev answer with
  | last :: _ -> Scanf.sscanf_opt last "OK rows=%_d version=%d%!" Fun.id
  | [] -> None

(** [interleave ~schedule shared actors] runs the actors against
    [shared], each through its own {!Service} connection, on the calling
    thread.  An actor's requests are its statement, or [:begin], its
    statements and [:commit]; an {!Rng} seeded with [schedule] picks
    which unfinished actor sends its next request, and each request runs
    to its answer before the next is sent.  Returns each actor's
    answers, newest first. *)
let interleave ~schedule shared (actors : Gen.actor list) =
  let requests = function
    | Gen.Auto q -> [ text q ]
    | Gen.Tx qs -> (":begin" :: List.map text qs) @ [ ":commit" ]
  in
  let todo = Array.of_list (List.map requests actors) in
  let conns = Array.map (fun _ -> Service.create ~config:concurrent_config shared) todo in
  let answers = Array.map (fun _ -> []) todo in
  let rng = Rng.make schedule in
  let rec step () =
    match List.filter (fun i -> todo.(i) <> []) (List.init (Array.length todo) Fun.id) with
    | [] -> answers
    | ready ->
        let i = Rng.pick_list rng ready in
        answers.(i) <- Service.handle conns.(i) (List.hd todo.(i)) :: answers.(i);
        todo.(i) <- List.tl todo.(i);
        step ()
  in
  step ()

(** Oracle 8.  {!interleave}s the actors on one shared server state,
    then checks (a) {e serializability in commit order}: the final head
    is isomorphic to running the committed actors one after another,
    ordered by the version their commit answered with — an auto-commit
    update's [OK], or a transaction's [:commit]; an [ERR] answer and an
    auto-commit read change nothing; and (b) {e durability}: replaying
    the WAL the group committer wrote — whose per-record counter
    checksums are validated by replay itself — reproduces the final
    head.  The case and [schedule] replay the same run. *)
let concurrent ~schedule (g : Graph.t) (actors : Gen.actor list) :
    (unit, string) result =
  let wal_buf = Buffer.create 256 in
  let sink = List.iter (fun e -> Buffer.add_string wal_buf (Wal.encode e)) in
  let shared = Shared.create ~sink g in
  let answers = interleave ~schedule shared actors in
  let _, final = Shared.current shared in
  let order =
    List.combine actors (Array.to_list answers)
    |> List.filter_map (fun (a, answers) ->
           match a with
           | Gen.Auto q when not (query_is_update q) -> None
           | _ -> Option.map (fun v -> (v, a)) (committed_version (List.hd answers)))
    |> List.sort (fun (v, _) (w, _) -> Int.compare v w)
  in
  let* () =
    check
      (Iso.isomorphic final (serial_apply g (List.map snd order)))
      (fun () ->
        Fmt.str
          "final graph differs from the serial run of the %d committed actors in commit \
           order (versions %s)"
          (List.length order)
          (String.concat ", " (List.map (fun (v, _) -> string_of_int v) order)))
  in
  let wal = Buffer.contents wal_buf in
  let records, clean_len, torn = Wal.scan_string wal in
  let* () =
    check
      (torn = None && clean_len = String.length wal)
      (fun () -> "committer-written journal does not scan cleanly")
  in
  match Recovery.replay g records with
  | Error e -> Error ("replay of the committer's journal failed: " ^ e)
  | Ok g' ->
      check (Iso.isomorphic g' final) (fun () ->
          "journal replay is not isomorphic to the final head")

(* ------------------------------------------------------------------ *)
(* Oracle 9: fused vs clause-by-clause reads                          *)
(* ------------------------------------------------------------------ *)

(** A read statement runs plain — a MATCH folding straight into the
    aggregating projection after it — and under [PROFILE], which runs
    clause by clause and materialises every intermediate table.  The
    result tables must be byte-identical; a failing statement must fail
    under both with the same {!Errors} constructor (the fused run may
    meet a WHERE error before a pattern error the materialising run
    meets first, so the messages may differ). *)
let fused (g : Graph.t) q : (unit, string) result =
  if query_is_update q then Ok ()
  else
    match (run revised_planned g q, run ~prefix:Parser.Profile revised_planned g q) with
    | Error e1, Error e2 ->
        check (error_kind e1 = error_kind e2) (fun () ->
            Fmt.str "fused run fails with %s but PROFILE with %s"
              (Errors.to_string e1) (Errors.to_string e2))
    | Ok _, Error e ->
        Error (Fmt.str "PROFILE fails (%s) where the fused run succeeds"
                 (Errors.to_string e))
    | Error e, Ok _ ->
        Error (Fmt.str "fused run fails (%s) where PROFILE succeeds"
                 (Errors.to_string e))
    | Ok r1, Ok r2 ->
        let t1 = Table.to_string r1.Api.r_table
        and t2 = Table.to_string r2.Api.r_table in
        check (String.equal t1 t2) (fun () ->
            Fmt.str "fused table differs from PROFILE:@ %s@ vs@ %s" t1 t2)

(* ------------------------------------------------------------------ *)
(* The oracle table                                                   *)
(* ------------------------------------------------------------------ *)

(** The parts of a {!Gen.case} an oracle reads besides its graph. *)
type part =
  | Statement
  | Extra  (** the durability workload's two extra statements *)
  | Actors  (** the concurrent clients and their schedule seed *)

type oracle = {
  name : string;  (** as [fuzz_main -oracle] and a corpus [// oracle:] header spell it *)
  reads : part list;
  verdict : Gen.case -> (pass, string) result;
      (** raises {!Harness_error} when a statement's print does not parse *)
}

let held r = Result.map (fun () -> Held) r

(** Every oracle, in the order [Fuzz.run] runs them: the one place an
    oracle is named.  The fuzzer, the corpus and [fuzz_main] all read
    it, so adding an oracle is one row here plus its function above. *)
let all =
  let row name reads verdict = { name; reads; verdict } and statement = [ Statement ] in
  [
    row "roundtrip" statement (fun c -> held (roundtrip c.Gen.statement));
    row "planner" statement (fun c ->
        held (planner_equivalence ~match_mode:c.Gen.match_mode c.graph c.statement));
    row "divergence" statement (fun c -> divergence c.Gen.graph c.statement);
    row "wellformed" statement (fun c -> held (wellformed c.Gen.graph c.statement));
    row "counters" statement (fun c -> held (counters c.Gen.graph c.statement));
    row "prepared" statement (fun c -> held (prepared c.Gen.graph c.statement));
    row "fused" statement (fun c -> held (fused c.Gen.graph c.statement));
    row "durability" [ Statement; Extra ] (fun c ->
        held (durability ~extra:c.Gen.extra c.graph c.statement));
    row "concurrent" [ Actors ] (fun c ->
        held (concurrent ~schedule:c.Gen.schedule c.graph c.actors));
  ]

let find name = List.find_opt (fun o -> o.name = name) all
