(** Public entry points: parse, validate and execute Cypher statements.

    Every statement the engine runs is a {!prepared} one, compiled from
    the parser's (prefix, query, parameters) triple: {!run_string},
    {!run_program} and {!run_exn} compile and execute in one call,
    {!prepare} and {!execute} in two.  Each therefore checks the
    statement's [$param]s up front, with their source spans, before
    anything runs.  The rest of [cypher_core] remains reachable for
    fine-grained use (e.g. the experiment harness drives {!Merge}
    directly to compare proposal variants on explicit driving
    tables). *)

open Cypher_graph
open Cypher_table

(** The observable outcome of one statement: graph, table, update
    counters, and — under an EXPLAIN / PROFILE prefix — the rendered
    plan and the per-clause profile.  [EXPLAIN] renders the plan without
    running the statement (input graph unchanged, unit table);
    [PROFILE] runs it and reports per-clause row counts and monotonic
    wall-time alongside the plan. *)
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

(** [run_string ~config graph src] parses one statement — recognising
    an optional [EXPLAIN] / [PROFILE] prefix — validates and executes
    it: a {!prepare} followed by one {!execute} with no extra bindings.
    Statements referencing parameters absent from [config.params] are
    rejected up front with an {!Errors.Eval_error} carrying the
    [$param]'s source position ([EXPLAIN] skips the check — it never
    evaluates anything).  The configuration defaults to
    {!Config.revised}. *)
val run_string :
  ?config:Config.t -> Graph.t -> string -> (result, Errors.t) Stdlib.result

(** {2 Prepared statements}

    A compiled statement: parsed, validated, and carrying a memo of
    hoisted match plans, so repeat executions (under fresh parameter
    bindings) skip lexing, parsing, validation and match planning.
    Compiled once with {!prepare}, executed any number of times with
    {!execute}, against different graphs and parameter
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
    output table of every statement.  Each statement compiles as
    {!prepare} compiles one and runs as {!run_string} would run it, with
    its parameter spans positioned in [src].  Execution stops at the
    first error. *)
val run_program :
  ?config:Config.t -> Graph.t -> string ->
  (Graph.t * Table.t list, Errors.t) Stdlib.result

(** Convenience for tests and examples that treat errors as fatal.
    @raise Errors.Error on any error (the structured error is
    preserved, not flattened to a string). *)
val run_exn : ?config:Config.t -> Graph.t -> string -> result
