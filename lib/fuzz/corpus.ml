(** Persistent regression corpus for the fuzzing oracles.

    A corpus entry is one [.cy] file: comment headers describing which
    oracle to run and how to set up the input graph, followed by the
    statement under test.

    {v
    // oracle: roundtrip | planner | divergence | wellformed | counters
    //         | dump | durability | prepared | fused | eval | error
    // index: A id                     (zero or more; property indexes,
    //                                  names quoted as in a dump)
    // graph: CREATE (:A {k: 1})       (zero or more; setup statements)
    // match: homomorphic              ('planner' oracle only; optional)
    // expect: eq=false                ('eval': rendered table;
    //                                  'error': expected error kind,
    //                                  e.g. validation or eval)
    MATCH (n:A) RETURN n.k = 1 AS eq
    v}

    Entries come from two sources: hand-written regressions (the Value
    comparison bugs of this PR fail on the pre-fix tree exactly through
    their entries here) and shrunk fuzzer failures appended by
    [fuzz_main -corpus].  The whole directory is replayed by tier-1. *)

module Graph = Cypher_graph.Graph
module Dump = Cypher_graph.Dump
module Value = Cypher_graph.Value
module Table = Cypher_table.Table
module Record = Cypher_table.Record
module Api = Cypher_core.Api
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors
module Pretty = Cypher_ast.Pretty
open Cypher_ast.Ast

type oracle =
  | Roundtrip
  | Planner
  | Divergence
  | Wellformed
  | Counters  (** update counters vs graph diff ({!Oracles.counters}) *)
  | Dump
      (** the setup graph must survive dump → reload isomorphically
          ({!Oracles.dump_roundtrip}); the statement runs first to let
          entries build adversarial graphs beyond plain CREATE *)
  | Durability
      (** journal + snapshot fault injection over the statement as a
          one-statement workload ({!Oracles.durability}) *)
  | Prepared
      (** literal-lifted prepare/execute must be byte-identical to the
          direct run ({!Oracles.prepared}) *)
  | Fused
      (** the plain run must be byte-identical to the clause-by-clause
          PROFILE run ({!Oracles.fused}) *)
  | Eval of string  (** expected canonical rendering of the result table *)
  | Expect_error of string
      (** the statement must fail, with this {!Oracles.kind_name} *)

type entry = {
  name : string;
  oracle : oracle;
  indexes : (string * string) list;  (** (label, key) property indexes *)
  setup : string list;  (** statements building the input graph *)
  homomorphic : bool;
      (** run the oracle under homomorphic matching (planner oracle) *)
  statement : string;
}

(* ------------------------------------------------------------------ *)
(* Parsing and rendering                                              *)
(* ------------------------------------------------------------------ *)

let strip s =
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < n && is_space s.[!i] do incr i done;
  while !j > !i && is_space s.[!j - 1] do decr j done;
  String.sub s !i (!j - !i)

let header line =
  (* "// key: value" -> Some (key, value) *)
  let line = strip line in
  if String.length line < 2 || String.sub line 0 2 <> "//" then None
  else
    let rest = strip (String.sub line 2 (String.length line - 2)) in
    match String.index_opt rest ':' with
    | None -> None
    | Some i ->
        Some
          ( strip (String.sub rest 0 i),
            strip (String.sub rest (i + 1) (String.length rest - i - 1)) )

let parse_entry ~name text : (entry, string) result =
  let lines = String.split_on_char '\n' text in
  let oracle = ref None
  and indexes = ref []
  and setup = ref []
  and expect = ref None
  and homomorphic = ref false
  and bad_index = ref None
  and body = ref [] in
  List.iter
    (fun line ->
      match header line with
      | Some ("oracle", v) -> oracle := Some v
      | Some ("index", v) -> (
          let ( let* ) = Result.bind in
          match
            let* label, i = Dump.read_ident v 0 in
            let* key, j = Dump.read_ident v i in
            if strip (String.sub v j (String.length v - j)) = "" then
              Ok (label, key)
            else Error "trailing text"
          with
          | Ok index -> indexes := !indexes @ [ index ]
          | Error msg -> bad_index := Some (v ^ ": " ^ msg))
      | Some ("graph", v) -> setup := !setup @ [ v ]
      | Some ("match", v) -> homomorphic := v = "homomorphic"
      | Some ("expect", v) -> expect := Some v
      | Some _ -> () (* unrecognised header: plain comment *)
      | None ->
          let line = strip line in
          if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "//")
          then body := !body @ [ line ])
    lines;
  let statement = String.concat "\n" !body in
  if statement = "" then Error (name ^ ": no statement body")
  else if Option.is_some !bad_index then
    Error (name ^ ": bad // index: header " ^ Option.get !bad_index)
  else
    let entry oracle =
      Ok
        {
          name;
          oracle;
          indexes = !indexes;
          setup = !setup;
          homomorphic = !homomorphic;
          statement;
        }
    in
    match (!oracle, !expect) with
    | Some "roundtrip", _ -> entry Roundtrip
    | Some "planner", _ -> entry Planner
    | Some "divergence", _ -> entry Divergence
    | Some "wellformed", _ -> entry Wellformed
    | Some "counters", _ -> entry Counters
    | Some "dump", _ -> entry Dump
    | Some "durability", _ -> entry Durability
    | Some "prepared", _ -> entry Prepared
    | Some "fused", _ -> entry Fused
    | Some "eval", Some expected -> entry (Eval expected)
    | Some "eval", None -> Error (name ^ ": eval entry without // expect:")
    | Some "error", Some kind -> entry (Expect_error kind)
    | Some "error", None -> Error (name ^ ": error entry without // expect:")
    | Some o, _ -> Error (name ^ ": unknown oracle " ^ o)
    | None, _ -> Error (name ^ ": missing // oracle: header")

let oracle_keyword = function
  | Roundtrip -> "roundtrip"
  | Planner -> "planner"
  | Divergence -> "divergence"
  | Wellformed -> "wellformed"
  | Counters -> "counters"
  | Dump -> "dump"
  | Durability -> "durability"
  | Prepared -> "prepared"
  | Fused -> "fused"
  | Eval _ -> "eval"
  | Expect_error _ -> "error"

let render_entry e =
  let b = Buffer.create 256 in
  Buffer.add_string b ("// oracle: " ^ oracle_keyword e.oracle ^ "\n");
  List.iter
    (fun (l, k) ->
      Buffer.add_string b
        (Printf.sprintf "// index: %s %s\n" (Dump.quote_ident l)
           (Dump.quote_ident k)))
    e.indexes;
  List.iter (fun s -> Buffer.add_string b ("// graph: " ^ s ^ "\n")) e.setup;
  if e.homomorphic then Buffer.add_string b "// match: homomorphic\n";
  (match e.oracle with
  | Eval expected | Expect_error expected ->
      Buffer.add_string b ("// expect: " ^ expected ^ "\n")
  | _ -> ());
  Buffer.add_string b e.statement;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Graph serialisation (for appending shrunk fuzzer failures)         *)
(* ------------------------------------------------------------------ *)

let rec lit_of_value = function
  | Value.Int i -> Lit (L_int i)
  | Value.Float f -> Lit (L_float f)
  | Value.String s -> Lit (L_string s)
  | Value.Bool b -> Lit (L_bool b)
  | Value.List l -> List_lit (List.map lit_of_value l)
  | _ -> Lit L_null

let props_exprs props =
  List.map (fun (k, v) -> (k, lit_of_value v))
    (Cypher_graph.Props.bindings props)

(** Renders a graph as (indexes, setup statements): one CREATE binding
    every node to a variable [v<id>], then anchoring every relationship
    on those variables.  Entity ids are not preserved — corpus replays
    care about shapes, not identities. *)
let graph_to_setup g =
  let indexes = Graph.prop_index_keys g in
  let var id = Printf.sprintf "v%d" id in
  let node_pat (n : Graph.node) =
    {
      pat_var = None;
      pat_start =
        {
          np_var = Some (var n.Graph.n_id);
          np_labels = Cypher_util.Maps.Sset.elements n.Graph.labels;
          np_props = props_exprs n.Graph.n_props;
        };
      pat_steps = [];
    }
  in
  let anchor id = { np_var = Some (var id); np_labels = []; np_props = [] } in
  let rel_pat (r : Graph.rel) =
    {
      pat_var = None;
      pat_start = anchor r.Graph.src;
      pat_steps =
        [
          ( {
              rp_var = None;
              rp_types = [ r.Graph.r_type ];
              rp_props = props_exprs r.Graph.r_props;
              rp_dir = Out;
              rp_range = None;
            },
            anchor r.Graph.tgt );
        ];
    }
  in
  let patterns =
    List.map node_pat (Graph.nodes g) @ List.map rel_pat (Graph.rels g)
  in
  let setup =
    if patterns = [] then []
    else [ Pretty.query_to_string { clauses = [ Create patterns ]; union = None } ]
  in
  (indexes, setup)

let entry_of_failure ~name ~oracle ~graph ~query =
  let indexes, setup = graph_to_setup graph in
  { name; oracle; indexes; setup; homomorphic = false;
    statement = Pretty.query_to_string query }

(* ------------------------------------------------------------------ *)
(* Checking                                                           *)
(* ------------------------------------------------------------------ *)

(** Canonical one-line rendering of a result table: rows in table
    order, each as [col=value] pairs in column order.  Execution is
    deterministic, so the rendering is too. *)
let render_table t =
  let cols = Table.columns t in
  let row r =
    String.concat ", "
      (List.map (fun c -> c ^ "=" ^ Value.to_string (Record.find r c)) cols)
  in
  match Table.rows t with
  | [] -> "<no rows>"
  | rows -> String.concat " | " (List.map row rows)

let build_graph e : (Graph.t, string) result =
  let g =
    List.fold_left
      (fun g (label, key) -> Graph.add_prop_index ~label ~key g)
      Graph.empty e.indexes
  in
  List.fold_left
    (fun acc stmt ->
      Result.bind acc (fun g ->
          match Api.run_string ~config:Config.permissive g stmt with
          | Ok o -> Ok o.Api.r_graph
          | Error err ->
              Error
                (Printf.sprintf "%s: setup %S failed: %s" e.name stmt
                   (Errors.to_string err))))
    (Ok g) e.setup

(** Runs the entry's oracle; [Ok ()] means the regression holds. *)
let check e : (unit, string) result =
  let ( let* ) = Result.bind in
  let* g = build_graph e in
  match e.oracle with
  | Expect_error kind -> (
      (* parse/validation failures can be the expectation here, so this
         variant runs the raw text instead of pre-parsing it *)
      match Api.run_string ~config:Config.permissive g e.statement with
      | Ok _ ->
          Error
            (Printf.sprintf "%s: expected a %s error but the statement succeeded"
               e.name kind)
      | Error err ->
          let got = Oracles.kind_name (Oracles.error_kind err) in
          if got = kind then Ok ()
          else
            Error
              (Printf.sprintf "%s: expected a %s error but got %s: %s" e.name
                 kind got (Errors.to_string err)))
  | _ ->
  let* q =
    match Api.parse ~dialect:Cypher_ast.Validate.Permissive e.statement with
    | Ok q -> Ok q
    | Error err ->
        Error (Printf.sprintf "%s: statement does not parse: %s" e.name
                 (Errors.to_string err))
  in
  match e.oracle with
  | Expect_error _ -> assert false (* handled above *)
  | Roundtrip -> Oracles.roundtrip q
  | Planner ->
      let match_mode =
        if e.homomorphic then Config.Homomorphic else Config.Isomorphic
      in
      Oracles.planner_equivalence ~match_mode g q
  | Wellformed -> Oracles.wellformed g q
  | Counters -> Oracles.counters g q
  | Dump -> (
      (* run the statement to build the graph under test, then check the
         dump round-trip on the result *)
      match Oracles.run Config.permissive g q with
      | Error err ->
          Error (Printf.sprintf "%s: execution failed: %s" e.name
                   (Errors.to_string err))
      | Ok o -> Oracles.dump_roundtrip o.Api.r_graph)
  | Durability -> Oracles.durability g q
  | Prepared -> Oracles.prepared g q
  | Fused -> Oracles.fused g q
  | Divergence -> (
      match Oracles.divergence g q with
      | Oracles.Agree | Oracles.Classified _ -> Ok ()
      | Oracles.Unclassified detail ->
          Error (e.name ^ ": unclassified divergence: " ^ detail))
  | Eval expected -> (
      match Oracles.run Config.permissive g q with
      | Error err ->
          Error (Printf.sprintf "%s: execution failed: %s" e.name
                   (Errors.to_string err))
      | Ok o ->
          let got = render_table o.Api.r_table in
          if got = expected then Ok ()
          else
            Error
              (Printf.sprintf "%s: expected %s but got %s" e.name expected got))

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

let load_file path : (entry, string) result =
  let name = Filename.remove_extension (Filename.basename path) in
  let text = In_channel.with_open_text path In_channel.input_all in
  parse_entry ~name text

let load_dir dir : (entry, string) result list =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cy")
  |> List.sort compare
  |> List.map (fun f -> load_file (Filename.concat dir f))
