(** Persistent regression corpus for the fuzzing oracles.

    A corpus entry is one [.cy] file: comment headers describing which
    oracle to run and how to set up the input graph, followed by the
    statement under test.

    {v
    // oracle: planner             (a fuzz oracle of Oracles.all that
    //                              reads no actors, or one of the
    //                              corpus-only kinds dump | eval | error)
    // index: A id                 (zero or more; property indexes,
    //                              names quoted as in a dump)
    // graph: CREATE (:A {k: 1})   (zero or more; setup statements)
    // match: homomorphic          (optional; the case's match mode,
    //                              which only the planner oracle reads)
    // expect: eq=false            ('eval': rendered table;
    //                              'error': expected error kind,
    //                              e.g. validation or eval)
    MATCH (n:A) RETURN n.k = 1 AS eq
    v}

    A fuzz oracle's entry runs that oracle's verdict on the case built
    from the entry's graph and statement.  Entries come from two
    sources: hand-written regressions (the Value comparison bugs fail
    on a tree without their fixes exactly through their entries here)
    and shrunk fuzzer failures appended by [fuzz_main -corpus].  The
    whole directory is replayed by tier-1. *)

module Graph = Cypher_graph.Graph
module Dump = Cypher_graph.Dump
module Value = Cypher_graph.Value
module Table = Cypher_table.Table
module Record = Cypher_table.Record
module Api = Cypher_core.Api
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors
module Pretty = Cypher_ast.Pretty

type kind =
  | Oracle of string
      (** the name of a row of {!Oracles.all} that reads no actors *)
  | Dump
      (** the setup graph must survive dump → reload isomorphically
          ({!Oracles.dump_roundtrip}); the statement runs first to let
          entries build adversarial graphs beyond plain CREATE *)
  | Eval of string  (** expected canonical rendering of the result table *)
  | Expect_error of string
      (** the statement must fail, with this {!Oracles.kind_name} *)

type entry = {
  name : string;
  oracle : kind;
  indexes : (string * string) list;  (** (label, key) property indexes *)
  setup : string list;  (** statements building the input graph *)
  homomorphic : bool;  (** the case's match mode is homomorphic *)
  statement : string;
}

(* an actor workload has no corpus format: its case seed replays it *)
let writable (o : Oracles.oracle) = not (List.mem Oracles.Actors o.reads)

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
    | Some "dump", _ -> entry Dump
    | Some "eval", Some expected -> entry (Eval expected)
    | Some "eval", None -> Error (name ^ ": eval entry without // expect:")
    | Some "error", Some kind -> entry (Expect_error kind)
    | Some "error", None -> Error (name ^ ": error entry without // expect:")
    | Some o, _ -> (
        match Oracles.find o with
        | Some row when writable row -> entry (Oracle o)
        | Some _ -> Error (name ^ ": oracle " ^ o ^ " has no corpus format")
        | None -> Error (name ^ ": unknown oracle " ^ o))
    | None, _ -> Error (name ^ ": missing // oracle: header")

let render_entry e =
  let b = Buffer.create 256 in
  let keyword =
    match e.oracle with
    | Oracle o -> o
    | Dump -> "dump"
    | Eval _ -> "eval"
    | Expect_error _ -> "error"
  in
  Buffer.add_string b ("// oracle: " ^ keyword ^ "\n");
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

(** [entry_of_failure f] is the corpus entry replaying fuzz failure
    [f]: its graph as {!Dump.to_cypher} writes it, on one [// graph:]
    line, and its statement.  [None] when [f]'s oracle reads actors,
    which have no corpus format.  Entity ids are not preserved — corpus
    replays care about shapes, not identities. *)
let entry_of_failure (f : Fuzz.failure) =
  if not (writable f.oracle) then None
  else
    let g = f.case.graph in
    let setup =
      match Dump.to_cypher g with
      | "" -> []
      | script ->
          (* one [CREATE ...,\n...;\n]: its strings are escaped and
             the generator's names are plain, so its only newlines
             separate entities *)
          let body = String.sub script 0 (String.length script - 2) in
          [ String.concat " " (String.split_on_char '\n' body) ]
    in
    Some
      {
        name = Printf.sprintf "fuzz_%s_seed%d" f.oracle.name f.case_seed;
        oracle = Oracle f.oracle.name;
        indexes = Graph.prop_index_keys g;
        setup;
        homomorphic = f.case.match_mode = Config.Homomorphic;
        statement = Pretty.query_to_string f.case.statement;
      }

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
  | Oracle o -> (
      match Oracles.find o with
      | None -> Error (e.name ^ ": unknown oracle " ^ o)
      | Some row ->
          let match_mode = if e.homomorphic then Config.Homomorphic else Config.Isomorphic in
          let case =
            { Gen.graph = g; statement = q; extra = []; actors = []; schedule = 0; match_mode }
          in
          Result.map_error (fun d -> e.name ^ ": " ^ d) (Fuzz.check row case))
  | Dump -> (
      (* run the statement to build the graph under test, then check the
         dump round-trip on the result *)
      match Oracles.run Config.permissive g q with
      | Error err ->
          Error (Printf.sprintf "%s: execution failed: %s" e.name
                   (Errors.to_string err))
      | Ok o -> Oracles.dump_roundtrip o.Api.r_graph)
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
