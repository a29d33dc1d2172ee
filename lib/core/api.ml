(** Public entry points: parse, validate and execute Cypher statements.

    This is the facade a downstream user programs against; everything
    else in [cypher_core] is reachable for fine-grained use (e.g. the
    experiment harness drives {!Merge} directly to compare proposal
    variants on explicit driving tables). *)

open Cypher_graph
open Cypher_table
open Cypher_util.Maps
module Parser = Cypher_parser.Parser
module Validate = Cypher_ast.Validate

type result = {
  r_graph : Graph.t;
  r_table : Table.t;
  r_stats : Stats.t;
  r_plan : string option;  (** rendered under EXPLAIN / PROFILE *)
  r_profile : Stats.profile_entry list option;  (** PROFILE only *)
}

let wrap_errors f =
  try Ok (f ()) with
  | Errors.Error e -> Error e
  | Cypher_eval.Ctx.Error m -> Error (Errors.Eval_error m)
  | Cypher_eval.Ctx.Internal m -> Error (Errors.Internal_error m)
  | Invalid_argument m -> Error (Errors.Eval_error m)

let parse_error e = Errors.Parse_error (Parser.error_to_string e)

(** [parse ~dialect src] parses and validates one statement. *)
let parse ?(dialect = Validate.Revised) src =
  match Parser.parse_string src with
  | Error e -> Error (parse_error e)
  | Ok q -> (
      match Validate.validate dialect q with
      | Error m -> Error (Errors.Validation_error m)
      | Ok q -> Ok q)

(* Every parameter a statement references must be supplied before it
   runs (Neo4j's discipline); the parser hands us each [$name]'s source
   position, so the error carries a span instead of surfacing lazily
   from deep inside evaluation.  EXPLAIN skips the check — it never
   evaluates anything. *)
let check_params_supplied params required =
  List.iter
    (fun (name, (line, col)) ->
      if not (Smap.mem name params) then
        Errors.eval_error "parameter $%s was not supplied (line %d, column %d)"
          name line col)
    required

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                *)
(* ------------------------------------------------------------------ *)

(** A compiled statement: parsed, validated, and carrying a plan memo so
    repeat executions (under fresh parameter bindings) skip lexing,
    parsing, validation and match planning.  Compiled once with
    {!prepare}, executed many times with {!execute}. *)
type prepared = {
  p_prefix : Parser.prefix;
  p_query : Cypher_ast.Ast.query;
  p_config : Config.t;
  p_params : (string * (int * int)) list;
      (* parameters the statement references, with source positions *)
  p_memo : Engine.Plan_memo.t;
}

(* The one way a statement compiles: the parser's (prefix, query,
   params) triple, validated against the configured dialect, with an
   empty plan memo.  [prepare] and [run_program] both come through
   here. *)
let compile config ((prefix, q, params) : Parser.statement) =
  match Validate.validate config.Config.dialect q with
  | Error m -> Error (Errors.Validation_error m)
  | Ok q ->
      Ok
        {
          p_prefix = prefix;
          p_query = q;
          p_config = config;
          p_params = params;
          p_memo = Engine.Plan_memo.create ();
        }

(** [prepare ~config src] compiles one statement: parse (recognising
    EXPLAIN / PROFILE), validate against the configured dialect, and
    attach an empty plan memo.  The result is immutable apart from the
    memo and may be executed any number of times, against different
    graphs and parameter bindings. *)
let prepare ?(config = Config.revised) src :
    (prepared, Errors.t) Stdlib.result =
  match Parser.parse_statement_params src with
  | Error e -> Error (parse_error e)
  | Ok statement -> compile config statement

(** Parameters the compiled statement references: name and (line,
    column) of the first occurrence, in first-occurrence order. *)
let prepared_params p = p.p_params

(** [prepared_updates p] is true when the compiled statement contains an
    update clause in any UNION branch.  EXPLAIN never executes, so it is
    always a read; PROFILE runs for real and classifies by content. *)
let prepared_updates p =
  let rec updates (q : Cypher_ast.Ast.query) =
    List.exists Cypher_ast.Ast.is_update_clause q.Cypher_ast.Ast.clauses
    ||
    match q.Cypher_ast.Ast.union with
    | None -> false
    | Some (_, q') -> updates q'
  in
  p.p_prefix <> Parser.Explain && updates p.p_query

(** [prepared_plan p graph] renders the execution plan the statement
    would use against [graph] (an EXPLAIN without executing). *)
let prepared_plan p graph = Explain.render p.p_config graph p.p_query

(** [execute p params graph] runs the compiled statement with the given
    parameter bindings (overriding any bindings already in the
    preparation config).  Unsupplied parameters are rejected up front
    with their source position.  Hoisted match plans are reused from the
    statement's memo; the memo invalidates itself whenever the graph's
    property-index key set changes, so no stale plan survives an index
    registration. *)
let execute (p : prepared) params graph : (result, Errors.t) Stdlib.result =
  let params = Smap.fold Smap.add params p.p_config.Config.params in
  let config = { p.p_config with Config.params } in
  let q = p.p_query in
  wrap_errors (fun () ->
      match p.p_prefix with
      | Parser.Explain ->
          {
            r_graph = graph;
            r_table = Table.unit;
            r_stats = Stats.empty;
            r_plan = Some (Explain.render config graph q);
            r_profile = None;
          }
      | (Parser.Plain | Parser.Profile) as prefix ->
          check_params_supplied params p.p_params;
          let stats = Stats.make () in
          let profile, plan =
            match prefix with
            | Parser.Profile ->
                (Some (ref []), Some (Explain.render ~profiled:true config graph q))
            | _ -> (None, None)
          in
          let graph', table =
            Engine.output ~stats ?profile ~memo:p.p_memo config graph q
          in
          {
            r_graph = graph';
            r_table = table;
            r_stats =
              (if config.Config.collect_stats then
                 Stats.finalize stats ~before:graph ~after:graph'
                   ~rows:(Table.row_count table)
               else Stats.empty);
            r_plan = plan;
            r_profile = Option.map (fun acc -> List.rev !acc) profile;
          })

(** [run_string ~config graph src] parses (recognising an optional
    EXPLAIN / PROFILE prefix), validates and executes one statement: a
    {!prepare} followed by one {!execute} with no extra bindings.
    Statements referencing parameters absent from [config.params] are
    rejected up front with the [$param]'s source position. *)
let run_string ?(config = Config.revised) graph src =
  Result.bind (prepare ~config src) (fun p -> execute p Smap.empty graph)

(** [run_program ~config graph src] executes a [;]-separated sequence of
    statements, threading the graph; returns the final graph and the
    output table of every statement.  Each statement compiles and runs
    as {!run_string} would run it, its parameter spans positioned in
    [src]; execution stops at the first error. *)
let run_program ?(config = Config.revised) graph src :
    (Graph.t * Table.t list, Errors.t) Stdlib.result =
  match Parser.parse_statements src with
  | Error e -> Error (parse_error e)
  | Ok statements ->
      let rec loop graph acc = function
        | [] -> Ok (graph, List.rev acc)
        | statement :: rest -> (
            match
              Result.bind (compile config statement) (fun p ->
                  execute p Smap.empty graph)
            with
            | Error e -> Error e
            | Ok r -> loop r.r_graph (r.r_table :: acc) rest)
      in
      loop graph [] statements

(** Convenience: [run_exn] for tests and examples that treat errors as
    fatal.  Raises {!Errors.Error} so callers keep the structured error
    (the printer registered in {!Errors} renders it readably if it
    escapes to top level) rather than a flattened [Failure] string. *)
let run_exn ?config graph src =
  match run_string ?config graph src with
  | Ok r -> r
  | Error e -> Errors.fail e
