(** Helpers to run paper experiments: executing a single (usually MERGE)
    clause against an explicit graph–driving-table pair, the situation
    all of the paper's Section 6 examples are stated in. *)

open Cypher_graph
open Cypher_table
open Cypher_core
module Validate = Cypher_ast.Validate

(** [parse_clause src] parses a one-clause statement permissively.
    @raise Errors.Error on parse/validation failure (the structured
    error is preserved for callers that match on it). *)
let parse_clause src : Cypher_ast.Ast.clause =
  match Api.parse ~dialect:Validate.Permissive src with
  | Error e -> Errors.fail e
  | Ok q -> (
      match q.Cypher_ast.Ast.clauses with
      | [ c ] -> c
      | _ -> Errors.fail (Errors.Validation_error "expected a single clause"))

(** [run_clause config src (g, t)] executes the clause denoted by [src]
    on the given graph–table pair. *)
let run_clause config src (g, t) : Graph.t * Table.t =
  Engine.exec_clause config ~stats:(Stats.make ()) (g, t) (parse_clause src)

(** [run_merge_mode config ~mode src (g, t)] executes the MERGE clause in
    [src] but overriding its semantics with [mode] — this is how the
    harness compares all five proposals on the same query text. *)
let run_merge_mode config ~mode src (g, t) : Graph.t * Table.t =
  match parse_clause src with
  | Cypher_ast.Ast.Merge { patterns; on_create; on_match; _ } ->
      Merge.run config ~stats:(Stats.make ()) (g, t) ~mode ~patterns ~on_create
        ~on_match
  | _ -> Errors.fail (Errors.Validation_error "expected a MERGE clause")

(** All driving-table orders used to probe order dependence. *)
let probe_orders = [ Config.Forward; Config.Reverse; Config.Seeded 1; Config.Seeded 42 ]
