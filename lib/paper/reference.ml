(** A naive reference implementation of MERGE ALL and MERGE SAME,
    transcribed as directly as possible from the formal definitions of
    Section 8.2 — used for differential testing of the production
    implementation in [cypher_core].

    Differences from the production code are deliberate:
    - instantiation is written independently (no sharing with
      [Cypher_core.Create] / [Cypher_core.Merge]);
    - the collapsibility quotient is computed by pairwise comparison and
      union-find over *all* created entities (Definitions 1 and 2,
      checked literally), not by canonical-key grouping;
    - no position bookkeeping, no label-index shortcuts.

    Only the two adopted semantics (Section 7) are covered; the weaker
    proposals are position-dependent refinements tested against the
    figures instead. *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval
module Matcher = Cypher_matcher.Matcher

let ctx g row = Ctx.make g row

(* ------------------------------------------------------------------ *)
(* [[CREATE π]] — naive per-record instantiation                      *)
(* ------------------------------------------------------------------ *)

let create_instance g0 g row (patterns : pattern list) =
  let fresh_nodes = ref [] in
  let fresh_rels = ref [] in
  let node_of g row (np : node_pat) =
    match np.np_var with
    | Some v when Record.mem row v -> (
        match Record.find row v with
        | Value.Node id -> (g, row, id)
        | v ->
            Cypher_core.Errors.update_error
              "reference: bound merge variable is not a node: %s"
              (Value.to_string v))
    | _ ->
        let props =
          List.fold_left
            (fun acc (k, e) -> Props.set acc k (Eval.eval (ctx g0 row) e))
            Props.empty np.np_props
        in
        let id, g = Graph.create_node ~labels:np.np_labels ~props g in
        fresh_nodes := id :: !fresh_nodes;
        let row =
          match np.np_var with
          | Some v -> Record.bind row v (Value.Node id)
          | None -> row
        in
        (g, row, id)
  in
  List.fold_left
    (fun (g, row) (p : pattern) ->
      let g, row, start = node_of g row p.pat_start in
      let g, row, _ =
        List.fold_left
          (fun (g, row, prev) ((rp : rel_pat), np) ->
            let g, row, next = node_of g row np in
            let src, tgt =
              match rp.rp_dir with
              | In -> (next, prev)
              | Out | Undirected -> (prev, next)
            in
            let r_type = List.hd rp.rp_types in
            let props =
              List.fold_left
                (fun acc (k, e) -> Props.set acc k (Eval.eval (ctx g0 row) e))
                Props.empty rp.rp_props
            in
            let id, g = Graph.create_rel ~src ~tgt ~r_type ~props g in
            fresh_rels := id :: !fresh_rels;
            let row =
              match rp.rp_var with
              | Some v -> Record.bind row v (Value.Rel id)
              | None -> row
            in
            (g, row, next))
          (g, row, start) p.pat_steps
      in
      (g, row))
    (g, row) patterns
  |> fun (g, row) -> (g, row, !fresh_nodes, !fresh_rels)

(* ------------------------------------------------------------------ *)
(* [[MERGE ALL π]](G, T)                                              *)
(* ------------------------------------------------------------------ *)

(** Returns the result pair plus the sets of created entities (needed by
    the quotient). *)
let merge_all_full (g : Graph.t) (t : Table.t) (patterns : pattern list) =
  (* T_match = [[MATCH π]](G, T); T_fail = unmatched records *)
  let t_match, t_fail =
    List.fold_left
      (fun (ms, fs) row ->
        match Matcher.match_patterns (ctx g row) patterns with
        | [] -> (ms, row :: fs)
        | extensions -> (List.rev_append extensions ms, fs))
      ([], []) (Table.rows t)
  in
  let t_match = List.rev t_match and t_fail = List.rev t_fail in
  (* (G_create, T_create) = [[CREATE π]](G, T_fail) *)
  let g', t_create_rev, new_nodes, new_rels =
    List.fold_left
      (fun (g', rows, ns, rs) row ->
        let g', row', ns', rs' = create_instance g g' row patterns in
        (g', row' :: rows, ns' @ ns, rs' @ rs))
      (g, [], [], []) t_fail
  in
  let columns = Table.columns t @ List.concat_map pattern_vars patterns in
  let table = Table.make columns (t_match @ List.rev t_create_rev) in
  (g', table, Iset.of_list new_nodes, Iset.of_list new_rels)

let merge_all g t patterns =
  let g', table, _, _ = merge_all_full g t patterns in
  (g', table)

(* ------------------------------------------------------------------ *)
(* Collapsibility and the quotient — pairwise, with union-find        *)
(* ------------------------------------------------------------------ *)

module Uf = struct
  type t = (int, int) Hashtbl.t

  let create ids : t =
    let tbl = Hashtbl.create 64 in
    List.iter (fun id -> Hashtbl.replace tbl id id) ids;
    tbl

  let rec find (uf : t) x =
    let p = Hashtbl.find uf x in
    if p = x then x
    else begin
      let root = find uf p in
      Hashtbl.replace uf x root;
      root
    end

  (** Union keeping the smaller id as representative. *)
  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then
      if ra < rb then Hashtbl.replace uf rb ra else Hashtbl.replace uf ra rb
end

(** Definition 1, checked literally on a pair of nodes. *)
let nodes_collapsible g' new_nodes n1 n2 =
  let a = Graph.node_exn g' n1 and b = Graph.node_exn g' n2 in
  Sset.equal a.Graph.labels b.Graph.labels
  && Props.equal a.Graph.n_props b.Graph.n_props
  && ((Iset.mem n1 new_nodes && Iset.mem n2 new_nodes) || n1 = n2)

(** Definition 2, given the node classes. *)
let rels_collapsible g' new_rels node_rep r1 r2 =
  let a = Graph.rel_exn g' r1 and b = Graph.rel_exn g' r2 in
  String.equal a.Graph.r_type b.Graph.r_type
  && Props.equal a.Graph.r_props b.Graph.r_props
  && node_rep a.Graph.src = node_rep b.Graph.src
  && node_rep a.Graph.tgt = node_rep b.Graph.tgt
  && ((Iset.mem r1 new_rels && Iset.mem r2 new_rels) || r1 = r2)

(** [[MERGE SAME π]] = the quotient of the MERGE ALL result. *)
let merge_same g t patterns =
  let g', table, new_nodes, new_rels = merge_all_full g t patterns in
  (* node classes *)
  let node_ids = Graph.node_ids g' in
  let nuf = Uf.create node_ids in
  List.iter
    (fun n1 ->
      List.iter
        (fun n2 ->
          if n1 < n2 && nodes_collapsible g' new_nodes n1 n2 then
            Uf.union nuf n1 n2)
        node_ids)
    node_ids;
  let node_rep id = Uf.find nuf id in
  (* relationship classes (after node classes) *)
  let rel_ids = Graph.rel_ids g' in
  let ruf = Uf.create rel_ids in
  List.iter
    (fun r1 ->
      List.iter
        (fun r2 ->
          if r1 < r2 && rels_collapsible g' new_rels node_rep r1 r2 then
            Uf.union ruf r1 r2)
        rel_ids)
    rel_ids;
  let rel_rep id = Uf.find ruf id in
  (* build G'' from representatives *)
  let nodes =
    List.filter (fun (n : Graph.node) -> node_rep n.Graph.n_id = n.Graph.n_id)
      (Graph.nodes g')
  in
  let rels =
    List.filter_map
      (fun (r : Graph.rel) ->
        if rel_rep r.Graph.r_id = r.Graph.r_id then
          Some
            { r with Graph.src = node_rep r.Graph.src; tgt = node_rep r.Graph.tgt }
        else None)
      (Graph.rels g')
  in
  let g'' =
    Graph.rebuild ~next_id:(Graph.next_id g') nodes rels
  in
  (* T'' replaces every occurrence of x by [x] *)
  let table'' =
    Table.map
      (Record.map_values (fun v ->
           match v with
           | Value.Node id -> Value.Node (node_rep id)
           | Value.Rel id -> Value.Rel (rel_rep id)
           | v -> v))
      table
  in
  (g'', table'')

(* ------------------------------------------------------------------ *)
(* shortestPath — one-sided BFS over every shortest walk               *)
(* ------------------------------------------------------------------ *)

(* the relationships at [node] in the step's direction, with their far
   ends, in relationship-id order *)
let adjacent g node (rp : rel_pat) =
  let ends rid =
    let r = Graph.rel_exn g rid in
    (r, if r.Graph.src = node then r.Graph.tgt else r.Graph.src)
  in
  let ids =
    match rp.rp_dir with
    | Out -> Graph.out_rel_ids g node
    | In -> Graph.in_rel_ids g node
    | Undirected -> Ids.union (Graph.out_rel_ids g node) (Graph.in_rel_ids g node)
  in
  List.map ends (Ids.elements ids)

let shortest_paths (c : Ctx.t) ~all (p : pattern) : Value.t =
  let rp, end_np =
    match p.pat_steps with
    | [ (rp, np) ] when rp.rp_range <> None -> (rp, np)
    | _ -> Ctx.error "shortestPath requires a single variable-length step"
  in
  let endpoint (np : node_pat) =
    match Option.map (Record.find_opt c.row) np.np_var with
    | Some (Some (Value.Node id)) -> Some id
    | Some (Some Value.Null) -> None
    | _ -> Ctx.error "shortestPath endpoints must be bound nodes"
  in
  let satisfies (r : Graph.rel) =
    (rp.rp_types = [] || List.mem r.Graph.r_type rp.rp_types)
    && List.for_all
         (fun (k, e) ->
           Value.equal_tri (Props.get r.Graph.r_props k) (Eval.eval c e) = Tri.True)
         rp.rp_props
  in
  match (endpoint p.pat_start, endpoint end_np) with
  | None, _ | _, None -> Value.Null
  | Some src, Some tgt ->
      let lo, hi =
        match rp.rp_range with
        | Some (lo, hi) -> (Option.value ~default:1 lo, hi)
        | None -> (1, None)
      in
      (* BFS keeping every predecessor on a shortest walk *)
      let preds = Hashtbl.create 16 and level = Hashtbl.create 16 in
      Hashtbl.replace level src 0;
      let queue = Queue.create () in
      Queue.add src queue;
      let found = ref None in
      while not (Queue.is_empty queue) do
        let node = Queue.pop queue in
        let depth = Hashtbl.find level node in
        if
          (match !found with Some d -> depth < d | None -> true)
          && match hi with Some h -> depth < h | None -> true
        then
          List.iter
            (fun ((r : Graph.rel), far) ->
              if satisfies r then begin
                (match Hashtbl.find_opt level far with
                | None ->
                    Hashtbl.replace level far (depth + 1);
                    Hashtbl.replace preds far [ (r, node) ];
                    Queue.add far queue
                | Some d when d = depth + 1 ->
                    Hashtbl.replace preds far ((r, node) :: Hashtbl.find preds far)
                | Some _ -> ());
                if far = tgt && depth + 1 >= lo && !found = None then
                  found := Some (depth + 1)
              end)
            (adjacent c.graph node rp)
      done;
      (* every shortest walk, threaded back from the target *)
      let rec walks_to node depth nodes rels =
        if depth = 0 then
          if node = src then [ { Value.path_nodes = node :: nodes; path_rels = rels } ]
          else []
        else
          List.concat_map
            (fun ((r : Graph.rel), prev) ->
              if Hashtbl.find_opt level prev = Some (depth - 1) then
                walks_to prev (depth - 1) (node :: nodes) (r.Graph.r_id :: rels)
              else [])
            (Option.value ~default:[] (Hashtbl.find_opt preds node))
      in
      let paths =
        if src = tgt && lo = 0 then [ { Value.path_nodes = [ src ]; path_rels = [] } ]
        else match !found with Some d -> walks_to tgt d [] [] | None -> []
      in
      if all then Value.List (List.map (fun p -> Value.Path p) paths)
      else match paths with [] -> Value.Null | p :: _ -> Value.Path p
