(** Greedy shrinking of failing (graph, statement) cases.

    Candidates only ever *remove* structure — a clause, a pattern, a
    pattern step, a property map, a projection decoration, a node or a
    relationship of the graph — so every chain of accepted candidates
    terminates.  Shrinking is fuel-bounded and keeps a candidate exactly
    when the caller's [fails] predicate still holds, so the final case
    fails for the same oracle as the original. *)

open Cypher_ast.Ast
module Graph = Cypher_graph.Graph

(* [l] with element [i] removed, for every [i]; only offered when the
   result is still meaningful for the construct (callers guard length). *)
let remove_each l = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l

let replace_each l cand_of =
  List.concat
    (List.mapi
       (fun i x ->
         List.map (fun x' -> List.mapi (fun j y -> if i = j then x' else y) l)
           (cand_of x))
       l)

(* ------------------------------------------------------------------ *)
(* Pattern and clause candidates                                      *)
(* ------------------------------------------------------------------ *)

let node_pat_candidates np =
  (if np.np_props <> [] then [ { np with np_props = [] } ] else [])
  @ if np.np_labels <> [] then [ { np with np_labels = [] } ] else []

let pattern_candidates p =
  (match List.rev p.pat_steps with
  | [] -> []
  | _ :: rest -> [ { p with pat_steps = List.rev rest } ])
  @ List.map (fun s -> { p with pat_start = s }) (node_pat_candidates p.pat_start)
  @ List.map
      (fun steps -> { p with pat_steps = steps })
      (replace_each p.pat_steps (fun (rp, np) ->
           (if rp.rp_props <> [] then [ ({ rp with rp_props = [] }, np) ] else [])
           @ List.map (fun np' -> (rp, np')) (node_pat_candidates np)))

let patterns_candidates ps =
  (if List.length ps > 1 then remove_each ps else [])
  @ replace_each ps pattern_candidates

let projection_candidates p =
  (if p.proj_order <> [] then [ { p with proj_order = [] } ] else [])
  @ (if p.proj_skip <> None then [ { p with proj_skip = None } ] else [])
  @ (if p.proj_limit <> None then [ { p with proj_limit = None } ] else [])
  @ (if p.proj_where <> None then [ { p with proj_where = None } ] else [])
  @ (if p.proj_distinct then [ { p with proj_distinct = false } ] else [])
  @
  if List.length p.proj_items > 1 then
    List.map (fun items -> { p with proj_items = items }) (remove_each p.proj_items)
  else []

let rec clause_candidates = function
  | Match m ->
      (if m.where <> None then [ Match { m with where = None } ] else [])
      @ (if m.optional then [ Match { m with optional = false } ] else [])
      @ List.map (fun ps -> Match { m with patterns = ps })
          (patterns_candidates m.patterns)
  | Create ps -> List.map (fun ps -> Create ps) (patterns_candidates ps)
  | Merge m ->
      (if m.on_create <> [] then [ Merge { m with on_create = [] } ] else [])
      @ (if m.on_match <> [] then [ Merge { m with on_match = [] } ] else [])
      @ List.map (fun ps -> Merge { m with patterns = ps })
          (patterns_candidates m.patterns)
  | Set items when List.length items > 1 ->
      List.map (fun items -> Set items) (remove_each items)
  | Remove items when List.length items > 1 ->
      List.map (fun items -> Remove items) (remove_each items)
  | Delete d ->
      (if d.detach then [ Delete { d with detach = false } ] else [])
      @
      if List.length d.targets > 1 then
        List.map (fun ts -> Delete { d with targets = ts }) (remove_each d.targets)
      else []
  | Foreach f ->
      (match f.fe_source with
      | List_lit es when List.length es > 1 ->
          List.map (fun es -> Foreach { f with fe_source = List_lit es })
            (remove_each es)
      | _ -> [])
      @ (if List.length f.fe_body > 1 then
           List.map (fun body -> Foreach { f with fe_body = body })
             (remove_each f.fe_body)
         else [])
      @ List.map (fun body -> Foreach { f with fe_body = body })
          (replace_each f.fe_body clause_candidates)
  | With p -> List.map (fun p -> With p) (projection_candidates p)
  | Return p -> List.map (fun p -> Return p) (projection_candidates p)
  | Unwind u -> (
      match u.source with
      | List_lit es when List.length es > 1 ->
          List.map (fun es -> Unwind { u with source = List_lit es })
            (remove_each es)
      | _ -> [])
  | Set _ | Remove _ -> []

let query_candidates q =
  (if List.length q.clauses > 1 then
     List.map (fun cs -> { q with clauses = cs }) (remove_each q.clauses)
   else [])
  @ List.map (fun cs -> { q with clauses = cs })
      (replace_each q.clauses clause_candidates)
  @ match q.union with Some (_, q') -> [ { q with union = None }; q' ] | None -> []

(* ------------------------------------------------------------------ *)
(* Graph candidates                                                   *)
(* ------------------------------------------------------------------ *)

let rebuild_like g nodes rels =
  Graph.rebuild
    ~prop_indexes:(Graph.prop_index_keys g)
    ~next_id:(Graph.next_id g) nodes rels

let graph_candidates g =
  let nodes = Graph.nodes g and rels = Graph.rels g in
  let without_rel (r : Graph.rel) =
    rebuild_like g nodes
      (List.filter (fun (r' : Graph.rel) -> r'.Graph.r_id <> r.Graph.r_id) rels)
  in
  let without_node (n : Graph.node) =
    let id = n.Graph.n_id in
    rebuild_like g
      (List.filter (fun (n' : Graph.node) -> n'.Graph.n_id <> id) nodes)
      (List.filter
         (fun (r : Graph.rel) -> r.Graph.src <> id && r.Graph.tgt <> id)
         rels)
  in
  List.map without_rel rels @ List.map without_node nodes

(* ------------------------------------------------------------------ *)
(* Fixed-point minimisation                                           *)
(* ------------------------------------------------------------------ *)

(** [minimize ~fails g q] greedily applies the first failing candidate
    until none remains (or the fuel runs out), first on the statement,
    then on the graph, then once more on the statement (a smaller graph
    can unlock further statement shrinks). *)
let minimize ~fails g q =
  let fuel = ref 600 in
  let try_cand pred cands =
    List.find_opt (fun c -> decr fuel; !fuel >= 0 && pred c) cands
  in
  let rec shrink_q g q =
    if !fuel <= 0 then q
    else
      match try_cand (fun q' -> fails g q') (query_candidates q) with
      | Some q' -> shrink_q g q'
      | None -> q
  in
  let rec shrink_g g q =
    if !fuel <= 0 then g
    else
      match try_cand (fun g' -> fails g' q) (graph_candidates g) with
      | Some g' -> shrink_g g' q
      | None -> g
  in
  let q = shrink_q g q in
  let g = shrink_g g q in
  let q = shrink_q g q in
  (g, q)
