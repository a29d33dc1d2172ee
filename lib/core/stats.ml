(** Statement update counters — see stats.mli. *)

open Cypher_util.Maps
open Cypher_graph

type t = {
  nodes_created : int;
  nodes_deleted : int;
  rels_created : int;
  rels_deleted : int;
  props_set : int;
  props_removed : int;
  labels_added : int;
  labels_removed : int;
  merge_matched : int;
  merge_created : int;
  rows : int;
}

let empty =
  {
    nodes_created = 0;
    nodes_deleted = 0;
    rels_created = 0;
    rels_deleted = 0;
    props_set = 0;
    props_removed = 0;
    labels_added = 0;
    labels_removed = 0;
    merge_matched = 0;
    merge_created = 0;
    rows = 0;
  }

let contains_updates s =
  s.nodes_created <> 0 || s.nodes_deleted <> 0 || s.rels_created <> 0
  || s.rels_deleted <> 0 || s.props_set <> 0 || s.props_removed <> 0
  || s.labels_added <> 0 || s.labels_removed <> 0

let equal (a : t) (b : t) = a = b

let footer s =
  let counted verb n singular plural =
    if n = 0 then None
    else Some (Printf.sprintf "%s %d %s" verb n (if n = 1 then singular else plural))
  in
  let parts =
    List.filter_map Fun.id
      [
        counted "created" s.nodes_created "node" "nodes";
        counted "created" s.rels_created "relationship" "relationships";
        counted "set" s.props_set "property" "properties";
        counted "added" s.labels_added "label" "labels";
        counted "deleted" s.nodes_deleted "node" "nodes";
        counted "deleted" s.rels_deleted "relationship" "relationships";
        counted "removed" s.props_removed "property" "properties";
        counted "removed" s.labels_removed "label" "labels";
      ]
  in
  match parts with
  | [] -> "(no changes)"
  | first :: rest ->
      (* only the first clause is capitalised *)
      String.concat ", " (String.capitalize_ascii first :: rest)

let pp ppf s =
  Fmt.pf ppf
    "@[<h>+%dn -%dn +%dr -%dr props +%d -%d labels +%d -%d merge %dm/%dc \
     rows %d@]"
    s.nodes_created s.nodes_deleted s.rels_created s.rels_deleted s.props_set
    s.props_removed s.labels_added s.labels_removed s.merge_matched
    s.merge_created s.rows

let to_string s = Fmt.str "%a" pp s

(* ------------------------------------------------------------------ *)
(* Counting                                                           *)
(* ------------------------------------------------------------------ *)

let diff ~before ~after =
  let props_set = ref 0 and props_removed = ref 0 in
  let props p0 p1 =
    let set, removed = Props.changes p0 p1 in
    props_set := !props_set + set;
    props_removed := !props_removed + removed
  in
  let labels_added = ref 0 and labels_removed = ref 0 in
  let labels l0 l1 =
    if l0 != l1 then begin
      labels_added := !labels_added + Sset.cardinal (Sset.diff l1 l0);
      labels_removed := !labels_removed + Sset.cardinal (Sset.diff l0 l1)
    end
  in
  let nodes_created, nodes_deleted =
    Graph.fold_node_changes
      (fun _ n0 n1 (created, deleted) ->
        match (n0, n1) with
        | None, Some (n : Graph.node) ->
            props Props.empty n.n_props;
            labels Sset.empty n.labels;
            (created + 1, deleted)
        | Some _, None -> (created, deleted + 1)
        | Some (n0 : Graph.node), Some (n1 : Graph.node) ->
            props n0.n_props n1.n_props;
            labels n0.labels n1.labels;
            (created, deleted)
        | None, None -> (created, deleted))
      before after (0, 0)
  in
  let rels_created, rels_deleted =
    Graph.fold_rel_changes
      (fun _ r0 r1 (created, deleted) ->
        match (r0, r1) with
        | None, Some (r : Graph.rel) ->
            props Props.empty r.r_props;
            (created + 1, deleted)
        | Some _, None -> (created, deleted + 1)
        | Some (r0 : Graph.rel), Some (r1 : Graph.rel) ->
            props r0.r_props r1.r_props;
            (created, deleted)
        | None, None -> (created, deleted))
      before after (0, 0)
  in
  {
    empty with
    nodes_created;
    nodes_deleted;
    rels_created;
    rels_deleted;
    props_set = !props_set;
    props_removed = !props_removed;
    labels_added = !labels_added;
    labels_removed = !labels_removed;
  }

type collector = { mutable matched : int; mutable created : int }

let make () = { matched = 0; created = 0 }
let merge_matched c n = c.matched <- c.matched + n
let merge_created c n = c.created <- c.created + n

let finalize c ~before ~after ~rows =
  { (diff ~before ~after) with merge_matched = c.matched; merge_created = c.created; rows }

(* ------------------------------------------------------------------ *)
(* Profiling                                                          *)
(* ------------------------------------------------------------------ *)

type profile_entry = { pf_clause : string; pf_rows : int; pf_ns : int64 }

let pp_profile ppf entries =
  let width =
    List.fold_left (fun w e -> max w (String.length e.pf_clause)) 6 entries
  in
  Fmt.pf ppf "@[<v>%-*s %8s %10s@," width "clause" "rows" "time";
  Fmt.pf ppf "%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf e ->
         Fmt.pf ppf "%-*s %8d %10s" width e.pf_clause e.pf_rows
           (Cypher_util.Mclock.pp_ns e.pf_ns)))
    entries
