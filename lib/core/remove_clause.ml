(** Semantics of the REMOVE clause (Section 8.2).

    Label and property removals cannot conflict — removing twice is the
    same as removing once — so the legacy and revised semantics coincide;
    changes are evaluated and applied from left to right. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval

let resolve config g row e =
  let v = Eval.eval (Runtime.ctx config g row) e in
  match v with
  | Value.Node id -> Some (`Node id)
  | Value.Rel id -> Some (`Rel id)
  | Value.Null -> None
  | v ->
      Errors.eval_error "REMOVE target must be a node or relationship, got %s"
        (Value.to_string v)

let apply_item config g row = function
  | Rem_prop (e, k) -> (
      match resolve config g row e with
      | None -> g
      | Some (`Node id) -> Graph.remove_node_prop g id k
      | Some (`Rel id) -> Graph.remove_rel_prop g id k)
  | Rem_labels (e, ls) -> (
      match resolve config g row e with
      | None -> g
      | Some (`Node id) -> List.fold_left (fun g l -> Graph.remove_label g id l) g ls
      | Some (`Rel _) -> Errors.update_error "labels can only be removed from nodes")

let run config (g, t) items =
  let g =
    Table.fold
      (fun row g ->
        List.fold_left (fun g item -> apply_item config g row item) g items)
      t g
  in
  (g, t)
