(** Public entry points: parse, validate and execute Cypher statements.

    This is the facade a downstream user programs against; the rest of
    [cypher_core] remains reachable for fine-grained use (e.g. the
    experiment harness drives {!Merge} directly to compare proposal
    variants on explicit driving tables). *)

open Cypher_graph
open Cypher_table

type outcome = { graph : Graph.t; table : Table.t }

(** The full observable outcome of one statement: graph, table, update
    counters, and — under an EXPLAIN / PROFILE prefix — the rendered
    plan and the per-clause profile. *)
type result = {
  r_graph : Graph.t;
  r_table : Table.t;
  r_stats : Stats.t;
  r_plan : string option;  (** rendered under EXPLAIN / PROFILE *)
  r_profile : Stats.profile_entry list option;  (** PROFILE only *)
}

(** [parse ~dialect src] parses and validates one statement.  The
    dialect defaults to the revised grammar (Figure 10). *)
val parse :
  ?dialect:Cypher_ast.Validate.dialect ->
  string ->
  (Cypher_ast.Ast.query, Errors.t) Stdlib.result

(** [run_query ~config graph q] validates [q] against the configured
    dialect and executes it, returning the updated graph and the output
    table.  The configuration defaults to {!Config.revised}. *)
val run_query :
  ?config:Config.t -> Graph.t -> Cypher_ast.Ast.query ->
  (outcome, Errors.t) Stdlib.result

(** [run_query_full ~config ~prefix graph q] executes [q] under a
    statement prefix: [Explain] renders the plan without running the
    statement (input graph unchanged, unit table); [Profile] runs it and
    reports per-clause row counts and monotonic wall-time alongside the
    plan; [Plain] (the default) just collects counters (when
    [config.collect_stats] is set, the default). *)
val run_query_full :
  ?config:Config.t ->
  ?prefix:Cypher_parser.Parser.prefix ->
  Graph.t -> Cypher_ast.Ast.query -> (result, Errors.t) Stdlib.result

(** [run_string ~config graph src] parses, validates and executes one
    statement; {!run_string_full} reduced to the graph and table, so it
    too recognises [EXPLAIN] / [PROFILE] prefixes and rejects unbound
    [$param]s up front with their source position. *)
val run_string :
  ?config:Config.t -> Graph.t -> string -> (outcome, Errors.t) Stdlib.result

(** [run_string_full ~config graph src] parses one statement —
    recognising an optional [EXPLAIN] / [PROFILE] prefix — validates and
    executes it.  Statements referencing parameters absent from
    [config.params] are rejected up front with an {!Errors.Eval_error}
    carrying the [$param]'s source position ([EXPLAIN] skips the check —
    it never evaluates anything). *)
val run_string_full :
  ?config:Config.t -> Graph.t -> string -> (result, Errors.t) Stdlib.result

(** {2 Prepared statements}

    A compiled statement: parsed, validated, and carrying a memo of
    hoisted match plans, so repeat executions (under fresh parameter
    bindings) skip lexing, parsing, validation and match planning.
    Compiled once with {!prepare}, executed any number of times with
    {!execute} / {!execute_full}, against different graphs and parameter
    bindings.  The plan memo invalidates itself whenever the graph's
    property-index key set changes, so no stale plan survives an index
    registration. *)

type prepared

(** [prepare ~config src] compiles one statement (parse, recognising
    [EXPLAIN] / [PROFILE]; validate against the configured dialect;
    attach an empty plan memo). *)
val prepare :
  ?config:Config.t -> string -> (prepared, Errors.t) Stdlib.result

(** [execute p params graph] runs the compiled statement with the given
    parameter bindings ([params] override bindings already present in
    the preparation config).  Parameters the statement references but
    that are not supplied are rejected up front, with their source
    position. *)
val execute :
  prepared ->
  Value.t Cypher_util.Maps.Smap.t ->
  Graph.t ->
  (outcome, Errors.t) Stdlib.result

(** [execute_full p params graph] is {!execute} with the full
    {!result} (plan and profile under an EXPLAIN / PROFILE prefix). *)
val execute_full :
  prepared ->
  Value.t Cypher_util.Maps.Smap.t ->
  Graph.t ->
  (result, Errors.t) Stdlib.result

(** Parameters the compiled statement references: name and (line,
    column) of the first occurrence, in first-occurrence order. *)
val prepared_params : prepared -> (string * (int * int)) list

(** [prepared_updates p] is true when the compiled statement contains an
    update clause in any UNION branch — EXPLAIN statements never execute
    and are always reads. *)
val prepared_updates : prepared -> bool

(** [prepared_plan p graph] renders the execution plan the statement
    would use against [graph] (an EXPLAIN without executing). *)
val prepared_plan : prepared -> Graph.t -> string

(** [run_program ~config graph src] executes a [;]-separated sequence of
    statements, threading the graph; returns the final graph and the
    output table of every statement.  Execution stops at the first
    error. *)
val run_program :
  ?config:Config.t -> Graph.t -> string ->
  (Graph.t * Table.t list, Errors.t) Stdlib.result

(** Convenience for tests and examples that treat errors as fatal.
    @raise Errors.Error on any error (the structured error is
    preserved, not flattened to a string). *)
val run_exn : ?config:Config.t -> Graph.t -> string -> outcome
