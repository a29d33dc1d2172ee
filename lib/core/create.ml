(** Semantics of the CREATE clause (Section 8.2).

    For each record of the driving table, the patterns are instantiated:
    node positions whose variable is already bound reuse the bound node
    (and may then carry no labels or properties in the pattern); all
    other node positions and every relationship position create fresh
    entities.  Named variables are bound in the output record; the
    temporary variables introduced by saturation are simply never
    recorded.  CREATE never reads what it writes, so record order cannot
    influence the result and the clause is the same under both regimes. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval

let ctx_of config graph row = Runtime.ctx config graph row

(** Resolves the node position [np]: reuse when bound, create when not.
    Returns the graph, updated row and the node id. *)
let resolve_node config g row (np : node_pat) =
  let bound =
    match np.np_var with
    | Some v -> Record.find_opt row v
    | None -> None
  in
  match bound with
  | Some (Value.Node id) ->
      if np.np_labels <> [] || np.np_props <> [] then
        Errors.update_error
          "variable `%s` is already bound; it cannot carry labels or \
           properties in CREATE"
          (Option.get np.np_var)
      else if not (Graph.has_node g id) then
        Errors.update_error
          "cannot CREATE using variable `%s`: the node was deleted"
          (Option.get np.np_var)
      else (g, row, id)
  | Some Value.Null ->
      Errors.update_error "cannot CREATE using null-bound variable `%s`"
        (Option.get np.np_var)
  | Some v ->
      Errors.update_error "variable `%s` is bound to %s, not a node"
        (Option.get np.np_var) (Value.to_string v)
  | None ->
      let props = Eval.eval_props (ctx_of config g row) np.np_props in
      let id, g = Graph.create_node ~labels:np.np_labels ~props g in
      let row =
        match np.np_var with
        | None -> row
        | Some v -> Record.bind row v (Value.Node id)
      in
      (g, row, id)

let create_rel config g row (rp : rel_pat) ~src ~tgt =
  (match rp.rp_var with
  | Some v when Record.mem row v ->
      Errors.update_error
        "relationship variable `%s` is already bound; relationships are \
         always created afresh"
        v
  | _ -> ());
  let r_type =
    match rp.rp_types with
    | [ t ] -> t
    | _ ->
        Errors.update_error
          "CREATE relationship patterns must carry exactly one type"
  in
  (* Cypher 9 MERGE may present an undirected relationship; creation
     then picks the left-to-right direction. *)
  let src, tgt = match rp.rp_dir with In -> (tgt, src) | Out | Undirected -> (src, tgt) in
  let props = Eval.eval_props (ctx_of config g row) rp.rp_props in
  let id, g = Graph.create_rel ~src ~tgt ~r_type ~props g in
  let row =
    match rp.rp_var with
    | None -> row
    | Some v -> Record.bind row v (Value.Rel id)
  in
  (g, row, id)

(** Instantiates one pattern for one record. *)
let create_pattern config g row (p : pattern) =
  let g, row, start_id = resolve_node config g row p.pat_start in
  let g, row, nodes_rev, rels_rev =
    List.fold_left
      (fun (g, row, nodes_rev, rels_rev) (rp, np) ->
        let prev = match nodes_rev with n :: _ -> n | [] -> assert false in
        let g, row, next_id = resolve_node config g row np in
        let g, row, rel_id =
          create_rel config g row rp ~src:prev ~tgt:next_id
        in
        (g, row, next_id :: nodes_rev, rel_id :: rels_rev))
      (g, row, [ start_id ], [])
      p.pat_steps
  in
  let row =
    match p.pat_var with
    | None -> row
    | Some v ->
        Record.bind row v
          (Value.Path
             {
               Value.path_nodes = List.rev nodes_rev;
               path_rels = List.rev rels_rev;
             })
  in
  (g, row)

let create_row config g row patterns =
  List.fold_left
    (fun (g, row) p -> create_pattern config g row p)
    (g, row) patterns

(** [run config (g, t) patterns] is [[CREATE π]](G, T). *)
let run config (g, t) (patterns : pattern list) =
  let g, rows_rev =
    List.fold_left
      (fun (g, acc) row ->
        let g, row = create_row config g row patterns in
        (g, row :: acc))
      (g, []) (Table.rows t)
  in
  let new_columns =
    Table.columns t @ List.concat_map pattern_vars patterns
  in
  (g, Table.make new_columns (List.rev rows_rev))
