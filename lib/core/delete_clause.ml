(** Semantics of DELETE and DETACH DELETE.

    Legacy (Cypher 9): entities are removed one record at a time, as the
    clause processes the driving table.  Deleting a node that still has
    relationships does *not* fail immediately — the graph passes through
    an illegal state with dangling relationships, and validity is only
    checked at the end of the whole statement (Neo4j's commit-time
    check).  References to deleted entities stay in the driving table and
    can still be SET upon or returned (the "empty node" of Section 4.2).

    Revised (Section 7): all entities to delete are collected against the
    input graph; a plain DELETE fails with {!Errors.Delete_dangling} if
    relationships would be left dangling, DETACH DELETE adds every
    attached relationship to the collection; all collected entities are
    then removed at once and every reference to them in the driving table
    is replaced by null. *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_table

module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval

let eval_target config g row e =
  Eval.eval (Runtime.ctx config g row) e

(** Adds the entities denoted by value [v] to the deletion sets. *)
let rec collect_value (nodes, rels) v =
  match v with
  | Value.Null -> (nodes, rels)
  | Value.Node id -> (Iset.add id nodes, rels)
  | Value.Rel id -> (nodes, Iset.add id rels)
  | Value.Path p ->
      ( List.fold_left (fun s id -> Iset.add id s) nodes p.Value.path_nodes,
        List.fold_left (fun s id -> Iset.add id s) rels p.Value.path_rels )
  | Value.List l -> List.fold_left collect_value (nodes, rels) l
  | v ->
      Errors.eval_error "DELETE expects nodes, relationships or paths, got %s"
        (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Legacy                                                             *)
(* ------------------------------------------------------------------ *)

let legacy_delete_value ~detach g v =
  let nodes, rels = collect_value (Iset.empty, Iset.empty) v in
  let g = Iset.fold (fun id g -> Graph.remove_rel g id) rels g in
  Iset.fold
    (fun id g ->
      (* DETACH also takes the incident relationships with it; a bare
         legacy DELETE leaves them dangling (still present). *)
      if detach then Graph.remove_node_detach g id
      else Graph.remove_node_force g id)
    nodes g

let run_legacy config (g, t) ~detach targets =
  let rows = Config.arrange_rows config (Table.rows t) in
  let g =
    List.fold_left
      (fun g row ->
        List.fold_left
          (fun g e ->
            legacy_delete_value ~detach g (eval_target config g row e))
          g targets)
      g rows
  in
  (* the table keeps its (now possibly dangling) references *)
  (g, t)

(* ------------------------------------------------------------------ *)
(* Revised                                                            *)
(* ------------------------------------------------------------------ *)

let run_atomic config (g, t) ~detach targets =
  let nodes, rels =
    Table.fold
      (fun row acc ->
        List.fold_left
          (fun acc e -> collect_value acc (eval_target config g row e))
          acc targets)
      t
      (Iset.empty, Iset.empty)
  in
  (* DETACH adds every relationship attached to a collected node *)
  let rels =
    if detach then
      Iset.fold
        (fun id rels ->
          List.fold_left
            (fun rels (r : Graph.rel) -> Iset.add r.Graph.r_id rels)
            rels
            (Graph.incident_rels g id))
        nodes rels
    else rels
  in
  (* strictness: no collected node may keep an uncollected relationship *)
  if not detach then
    Iset.iter
      (fun id ->
        let attached =
          List.filter
            (fun (r : Graph.rel) -> not (Iset.mem r.Graph.r_id rels))
            (Graph.incident_rels g id)
        in
        if attached <> [] then
          Errors.fail
            (Errors.Delete_dangling
               {
                 node = id;
                 rels = List.map (fun (r : Graph.rel) -> r.Graph.r_id) attached;
               }))
      nodes;
  let g = Iset.fold (fun id g -> Graph.remove_rel g id) rels g in
  let g =
    Iset.fold
      (fun id g ->
        match Graph.remove_node g id with
        | Ok g -> g
        | Error _ -> assert false (* strictness was checked above *))
      nodes g
  in
  (g, Rewrite.null_deleted ~nodes ~rels t)

let run config (g, t) ~detach targets =
  match config.Config.mode with
  | Config.Legacy -> run_legacy config (g, t) ~detach targets
  | Config.Atomic -> run_atomic config (g, t) ~detach targets
