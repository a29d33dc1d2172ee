(** Semantics of the SET clause.

    Legacy (Cypher 9): set items are applied one record at a time, one
    item at a time, each immediately visible to the next — which loses
    the simultaneous-assignment reading (Example 1) and silently resolves
    conflicting assignments by last-writer-wins (Example 2).

    Revised (Section 7): all expressions are first evaluated against the
    *input* graph for every record, accumulating the induced changes
    (propchanges / labchanges of Section 8.2); if two changes assign
    different values to the same property of the same entity the clause
    fails with {!Errors.Set_conflict}; otherwise all changes are applied
    in one atomic step. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval

type target = T_node of int | T_rel of int

let target_value = function
  | T_node id -> Value.Node id
  | T_rel id -> Value.Rel id

(** Resolves a SET target expression; [None] means null (no-op). *)
let resolve_target config g row e : target option =
  let v = Eval.eval (Runtime.ctx config g row) e in
  match v with
  | Value.Node id -> Some (T_node id)
  | Value.Rel id -> Some (T_rel id)
  | Value.Null -> None
  | v ->
      Errors.eval_error "SET target must be a node or relationship, got %s"
        (Value.to_string v)

(** Evaluates the map argument of [SET e = m] / [SET e += m]: a literal
    map, a node or a relationship (whose properties are copied). *)
let resolve_props config g row e : Props.t =
  let v = Eval.eval (Runtime.ctx config g row) e in
  match v with
  | Value.Map m -> Props.of_map m
  | Value.Node id -> Graph.node_props_of g id
  | Value.Rel id -> Graph.rel_props_of g id
  | v ->
      Errors.eval_error
        "SET expects a map, node or relationship on the right, got %s"
        (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Writes                                                             *)
(* ------------------------------------------------------------------ *)

(* A write to an entity that no longer exists is a graph no-op: a
   legacy SET on a deleted node leaves Section 4.2's "empty node". *)

let apply_prop g target k v =
  match target with
  | T_node id -> Graph.set_node_prop g id k v
  | T_rel id -> Graph.set_rel_prop g id k v

let apply_replace g target props =
  match target with
  | T_node id -> Graph.replace_node_props g id props
  | T_rel id -> Graph.replace_rel_props g id props

let apply_labels g target labels =
  match target with
  | T_node id -> Graph.add_labels g id labels
  | T_rel _ ->
      Errors.update_error "labels can only be set on nodes"

(* ------------------------------------------------------------------ *)
(* Revised: collect, check, apply                                     *)
(* ------------------------------------------------------------------ *)

type change =
  | C_prop of target * string * Value.t
  | C_replace of target * Props.t
  | C_labels of target * string list

(** Collects the changes of one item under one record, evaluated against
    the input graph [g0]. *)
let collect_item config g0 row item acc =
  match item with
  | Set_prop (e, k, ve) -> (
      match resolve_target config g0 row e with
      | None -> acc
      | Some t ->
          let v = Eval.eval (Runtime.ctx config g0 row) ve in
          C_prop (t, k, v) :: acc)
  | Set_all_props (e, me) -> (
      match resolve_target config g0 row e with
      | None -> acc
      | Some t -> C_replace (t, resolve_props config g0 row me) :: acc)
  | Set_merge_props (e, me) -> (
      match resolve_target config g0 row e with
      | None -> acc
      | Some t ->
          (* += expands to one per-key change so that conflicts between
             overlapping maps are detected *)
          let props = resolve_props config g0 row me in
          (* keys removed by a null value in the source map have already
             been dropped by resolve_props; a += can therefore only add
             or overwrite keys, never remove them *)
          List.fold_left
            (fun acc (k, v) -> C_prop (t, k, v) :: acc)
            acc (Props.bindings props))
  | Set_labels (e, ls) -> (
      match resolve_target config g0 row e with
      | None -> acc
      | Some t -> C_labels (t, ls) :: acc)

(** Checks well-definedness: no two changes may assign different values
    to the same property of the same entity (Example 2 must error). *)
let check_conflicts changes =
  let tbl = Hashtbl.create 16 in
  let replace_tbl = Hashtbl.create 4 in
  List.iter
    (fun change ->
      match change with
      | C_prop (t, k, v) -> (
          match Hashtbl.find_opt tbl (t, k) with
          | None -> Hashtbl.add tbl (t, k) v
          | Some v' ->
              if not (Value.equal_strict v v') then
                Errors.fail
                  (Errors.Set_conflict
                     { entity = target_value t; key = k; value1 = v'; value2 = v }))
      | C_replace (t, props) -> (
          match Hashtbl.find_opt replace_tbl t with
          | None -> Hashtbl.add replace_tbl t props
          | Some props' ->
              if not (Props.equal props props') then
                Errors.fail
                  (Errors.Set_conflict
                     {
                       entity = target_value t;
                       key = "*";
                       value1 = Props.to_value props';
                       value2 = Props.to_value props;
                     }))
      | C_labels _ -> ())
    changes;
  (* a whole-map replacement combined with a point assignment on the
     same entity is well-defined only when the point assignment agrees
     with the replacement map *)
  Hashtbl.iter
    (fun (t, k) v ->
      match Hashtbl.find_opt replace_tbl t with
      | None -> ()
      | Some props ->
          if not (Value.equal_strict (Props.get props k) v) then
            Errors.fail
              (Errors.Set_conflict
                 {
                   entity = target_value t;
                   key = k;
                   value1 = Props.get props k;
                   value2 = v;
                 }))
    tbl

let apply_change g = function
  | C_prop (t, k, v) -> apply_prop g t k v
  | C_replace (t, props) -> apply_replace g t props
  | C_labels (t, ls) -> apply_labels g t ls

let run_atomic config (g, t) items =
  let changes =
    List.fold_left
      (fun acc row ->
        List.fold_left (fun acc item -> collect_item config g row item acc) acc items)
      [] (Table.rows t)
  in
  let changes = List.rev changes in
  check_conflicts changes;
  (* replacements first, then point assignments, then labels: point
     assignments agreeing with a replacement must survive it *)
  let order = function C_replace _ -> 0 | C_prop _ -> 1 | C_labels _ -> 2 in
  let changes = List.stable_sort (fun a b -> compare (order a) (order b)) changes in
  let g = List.fold_left apply_change g changes in
  (g, t)

(* ------------------------------------------------------------------ *)
(* Legacy: immediate application                                      *)
(* ------------------------------------------------------------------ *)

(* one item under one record, collected against the current graph and
   applied at once, so the next item sees it *)
let legacy_item config g row item =
  List.fold_left apply_change g
    (List.rev (collect_item config g row item []))

let run_legacy config (g, t) items =
  let rows = Config.arrange_rows config (Table.rows t) in
  let g =
    List.fold_left
      (fun g row ->
        List.fold_left (fun g item -> legacy_item config g row item) g items)
      g rows
  in
  (g, t)

let run config (g, t) items =
  match config.Config.mode with
  | Config.Legacy -> run_legacy config (g, t) items
  | Config.Atomic -> run_atomic config (g, t) items
