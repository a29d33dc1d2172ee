(** Semantics of MERGE — legacy and all five proposed replacements.

    Legacy (Cypher 9, Section 4.3): records are processed one at a time;
    each record first tries to match the pattern in the *current* graph
    (including what earlier records created) and creates an instance on
    failure.  Reading its own writes makes the clause order-dependent and
    hence nondeterministic (Example 3 / Figure 6).

    Revised (Sections 6–8): the driving table is split against the
    *input* graph into Tmatch (records with at least one embedding,
    extended with every embedding, as in MATCH) and Tfail; instances are
    created for Tfail; the result table is Tmatch ⊎ Tcreate.

    - MERGE ALL (Atomic): one fresh instance per failing record.
    - Grouping: one instance per group of failing records with equal
      values for every expression appearing in the pattern.
    - Weak Collapse:  ALL followed by the quotient with both position
      restrictions (only same-position entities collapse).
    - Collapse:       quotient with cross-position node collapsing.
    - Strong Collapse (= MERGE SAME): quotient with cross-position node
      and relationship collapsing (Definitions 1 and 2 verbatim).

    The collapsing proposals are implemented as *grouped* instantiation
    followed by their quotient: records with equal pattern expressions
    would create entity-wise identical instances, which every
    position-sensitive or -insensitive quotient merges completely, so
    instantiating once per group and quotienting the group instances
    yields the same graph — and the same remapped bindings — as one
    instance per record, without materialising entities that are
    immediately collapsed away. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval
module Matcher = Cypher_matcher.Matcher

let ctx_of config graph row = Runtime.ctx config graph row

(* ------------------------------------------------------------------ *)
(* Legacy MERGE                                                       *)
(* ------------------------------------------------------------------ *)

let apply_set_legacy config ~stats g rows items =
  List.fold_left
    (fun g row ->
      List.fold_left
        (fun g item -> Set_clause.legacy_item config ~stats g row item)
        g items)
    g rows

let run_legacy config ~stats (g, t) ~patterns ~on_create ~on_match =
  let rows = Config.arrange_rows config (Table.rows t) in
  let g, out_rows_rev =
    List.fold_left
      (fun (g, acc) row ->
        let matches = Matcher.match_patterns ~mode:(Runtime.match_mode_of config) ~planner:(Runtime.planner_on config) (ctx_of config g row) patterns in
        if matches <> [] then begin
          Stats.merge_matched stats 1;
          let g = apply_set_legacy config ~stats g matches on_match in
          (g, List.rev_append matches acc)
        end
        else begin
          Stats.merge_created stats 1;
          let g, row' = Create.create_row config ~stats g row patterns in
          let g = apply_set_legacy config ~stats g [ row' ] on_create in
          (g, row' :: acc)
        end)
      (g, []) rows
  in
  let columns = Table.columns t @ List.concat_map pattern_vars patterns in
  (g, Table.make columns (List.rev out_rows_rev))

(* ------------------------------------------------------------------ *)
(* Instantiation for the revised semantics                            *)
(* ------------------------------------------------------------------ *)

type created = {
  c_nodes : (int * Quotient.position) list;
  c_rels : (int * Quotient.position) list;
}

let no_created = { c_nodes = []; c_rels = [] }

(** Creates one instance of the pattern tuple.  Bound variables anchor
    the instance to existing nodes; everything else is created fresh.
    Property expressions are evaluated against the *input* graph [g0].
    Returns created entity ids tagged with their pattern positions. *)
let instantiate config ~stats g0 g row (patterns : pattern list) =
  let created = ref no_created in
  let resolve_node g row pat_idx elem_idx (np : node_pat) =
    let bound =
      match np.np_var with Some v -> Record.find_opt row v | None -> None
    in
    match bound with
    | Some (Value.Node id) ->
        if not (Graph.has_node g id) then
          Errors.update_error "MERGE: bound node %d no longer exists" id
        else (g, row, id)
    | Some Value.Null ->
        Errors.update_error "MERGE: cannot merge on null-bound variable `%s`"
          (Option.get np.np_var)
    | Some v ->
        Errors.update_error "MERGE: variable `%s` is bound to %s, not a node"
          (Option.get np.np_var) (Value.to_string v)
    | None ->
        let props = Eval.eval_props (ctx_of config g0 row) np.np_props in
        let id, g = Graph.create_node ~labels:np.np_labels ~props g in
        Stats.node_created stats id;
        created :=
          { !created with c_nodes = (id, (pat_idx, elem_idx)) :: !created.c_nodes };
        let row =
          match np.np_var with
          | None -> row
          | Some v -> Record.bind row v (Value.Node id)
        in
        (g, row, id)
  in
  let g, row =
    List.fold_left
      (fun (g, row) (pat_idx, (p : pattern)) ->
        let g, row, start_id = resolve_node g row pat_idx 0 p.pat_start in
        let g, row, nodes_rev, rels_rev, _ =
          List.fold_left
            (fun (g, row, nodes_rev, rels_rev, elem_idx) ((rp : rel_pat), np) ->
              let prev = List.hd nodes_rev in
              let g, row, next_id = resolve_node g row pat_idx elem_idx np in
              (match rp.rp_var with
              | Some v when Record.mem row v ->
                  Errors.update_error
                    "MERGE: relationship variable `%s` is already bound" v
              | _ -> ());
              let r_type =
                match rp.rp_types with
                | [ ty ] -> ty
                | _ ->
                    Errors.update_error
                      "MERGE relationship patterns must carry exactly one type"
              in
              let src, tgt =
                match rp.rp_dir with
                | In -> (next_id, prev)
                | Out | Undirected -> (prev, next_id)
              in
              let props = Eval.eval_props (ctx_of config g0 row) rp.rp_props in
              let rel_id, g = Graph.create_rel ~src ~tgt ~r_type ~props g in
              Stats.rel_created stats rel_id;
              created :=
                {
                  !created with
                  c_rels = (rel_id, (pat_idx, elem_idx - 1)) :: !created.c_rels;
                };
              let row =
                match rp.rp_var with
                | None -> row
                | Some v -> Record.bind row v (Value.Rel rel_id)
              in
              (g, row, next_id :: nodes_rev, rel_id :: rels_rev, elem_idx + 1))
            (g, row, [ start_id ], [], 1)
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
        (g, row))
      (g, row)
      (List.mapi (fun i p -> (i, p)) patterns)
  in
  (g, row, !created)

(** The grouping key of a failing record: the values of every property
    expression appearing in the pattern tuple, plus the values of every
    variable of the pattern that the record already binds (Section 6:
    "grouping records in the driving table by the expressions appearing
    in the pattern").  The key mirrors the pattern's structure (one
    sublist per element) so values from different elements can never
    shift into alignment, and is compared under the total order — the
    same equality the collapsibility quotient uses for property values. *)
let grouping_key config g0 (patterns : pattern list) row : Value.t =
  let ctx = ctx_of config g0 row in
  let of_props kvs =
    Value.List (List.map (fun (_, e) -> Eval.eval ctx e) kvs)
  in
  let of_var = function
    | Some v -> (
        match Record.find_opt row v with
        | Some x -> Value.List [ x ]
        | None -> Value.List [])
    | None -> Value.List []
  in
  Value.List
    (List.map
       (fun (p : pattern) ->
         Value.List
           (of_var p.pat_start.np_var
           :: of_props p.pat_start.np_props
           :: List.concat_map
                (fun ((rp : rel_pat), (np : node_pat)) ->
                  [ of_props rp.rp_props; of_var np.np_var;
                    of_props np.np_props ])
                p.pat_steps))
       patterns)

(* ------------------------------------------------------------------ *)
(* Revised MERGE                                                      *)
(* ------------------------------------------------------------------ *)

type row_outcome =
  | Matched of Record.t list
  | Created of Record.t  (** filled in after instantiation *)

let apply_set_atomic config ~stats g rows columns items =
  if items = [] || rows = [] then g
  else
    let t = Table.make columns rows in
    let g, _ = Set_clause.run_atomic config ~stats (g, t) items in
    g

let run_revised config ~stats (g0, t) ~mode ~patterns ~on_create ~on_match =
  (* 1. split the table against the input graph.  Candidate enumeration
     reads only the immutable [g0] snapshot, so it fans out over the
     domain pool with ordered gather; everything from instantiation on
     mutates the graph and stays strictly sequential. *)
  let outcomes =
    Cypher_util.Pool.map_chunks
      ~parallelism:(Runtime.parallelism_of config)
      (fun row ->
        match Matcher.match_patterns ~mode:(Runtime.match_mode_of config) ~planner:(Runtime.planner_on config) (ctx_of config g0 row) patterns with
        | [] -> `Fail row
        | matches -> `Match matches)
      (Table.rows t)
  in
  (* 2. instantiate for failing records *)
  (* The collapsing modes (Weak Collapse, Collapse, SAME) also
     instantiate once per group: records with equal grouping keys create
     entity-wise identical instances, which their quotients merge
     completely, so grouped instantiation yields the same graph and the
     same remapped bindings as one instance per record — while creating
     (and immediately collapsing) far fewer entities.  MERGE ALL keeps
     one instance per record by definition. *)
  let grouped =
    match mode with
    | Merge_grouping | Merge_weak_collapse | Merge_collapse | Merge_same ->
        true
    | Merge_all | Merge_legacy -> false
  in
  (* group table bucketed by the key's hash; keys compared under the
     total order only within a bucket *)
  let group_cache :
      (int, (Value.t * (Record.t * created)) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let find_group key =
    match Hashtbl.find_opt group_cache (Value.hash_total key) with
    | None -> None
    | Some bucket ->
        Option.map snd
          (List.find_opt
             (fun (k, _) -> Value.compare_total k key = 0)
             !bucket)
  in
  let add_group key v =
    let h = Value.hash_total key in
    match Hashtbl.find_opt group_cache h with
    | None -> Hashtbl.add group_cache h (ref [ (key, v) ])
    | Some bucket -> bucket := (key, v) :: !bucket
  in
  (* instantiation-time validation must still fire for records that
     reuse their group's instance instead of instantiating *)
  let check_reused_row row =
    List.iter
      (fun (p : pattern) ->
        List.iter
          (fun ((rp : rel_pat), _) ->
            match rp.rp_var with
            | Some v when Record.mem row v ->
                Errors.update_error
                  "MERGE: relationship variable `%s` is already bound" v
            | _ -> ())
          p.pat_steps)
      patterns
  in
  let g, outcomes, all_created =
    List.fold_left
      (fun (g, acc, all_created) outcome ->
        match outcome with
        | `Match matches ->
            Stats.merge_matched stats 1;
            (g, Matched matches :: acc, all_created)
        | `Fail row ->
            Stats.merge_created stats 1;
            if grouped then (
              let key = grouping_key config g0 patterns row in
              match find_group key with
              | Some (bindings, _) ->
                  check_reused_row row;
                  (* reuse the group's instance: copy its new bindings *)
                  let row' =
                    List.fold_left
                      (fun row (k, v) ->
                        if Record.mem row k then row else Record.bind row k v)
                      row
                      (Record.bindings bindings)
                  in
                  (g, Created row' :: acc, all_created)
              | None ->
                  let g, row', created =
                    instantiate config ~stats g0 g row patterns
                  in
                  add_group key (row', created);
                  ( g,
                    Created row' :: acc,
                    {
                      c_nodes = created.c_nodes @ all_created.c_nodes;
                      c_rels = created.c_rels @ all_created.c_rels;
                    } ))
            else
              let g, row', created = instantiate config ~stats g0 g row patterns in
              ( g,
                Created row' :: acc,
                {
                  c_nodes = created.c_nodes @ all_created.c_nodes;
                  c_rels = created.c_rels @ all_created.c_rels;
                } ))
      (g0, [], no_created) outcomes
  in
  let outcomes = List.rev outcomes in
  (* 3. quotient according to the chosen proposal *)
  let quotient =
    match mode with
    | Merge_all | Merge_grouping | Merge_legacy -> Quotient.identity_result g
    | Merge_weak_collapse ->
        Quotient.apply g ~new_nodes:all_created.c_nodes
          ~new_rels:all_created.c_rels ~node_pos_matters:true
          ~rel_pos_matters:true
    | Merge_collapse ->
        Quotient.apply g ~new_nodes:all_created.c_nodes
          ~new_rels:all_created.c_rels ~node_pos_matters:false
          ~rel_pos_matters:true
    | Merge_same ->
        Quotient.apply g ~new_nodes:all_created.c_nodes
          ~new_rels:all_created.c_rels ~node_pos_matters:false
          ~rel_pos_matters:false
  in
  let g = quotient.Quotient.graph in
  (* fold the created-entity sets through the quotient so collapsed
     instances count once *)
  (match mode with
  | Merge_all | Merge_grouping | Merge_legacy -> ()
  | Merge_weak_collapse | Merge_collapse | Merge_same ->
      Stats.remap_created stats ~node_map:quotient.Quotient.node_map
        ~rel_map:quotient.Quotient.rel_map);
  (* remap every outcome row through the quotient exactly once; the
     remapped rows feed both the ON MATCH / ON CREATE sub-tables and the
     final result table.  The non-collapsing modes use the identity
     quotient, where the rewrite would be a no-op traversal — skip it. *)
  let outcomes =
    match mode with
    | Merge_all | Merge_grouping | Merge_legacy -> outcomes
    | Merge_weak_collapse | Merge_collapse | Merge_same ->
        let remap row =
          Rewrite.record
            ~node:(fun id -> Some (quotient.Quotient.node_map id))
            ~rel:(fun id -> Some (quotient.Quotient.rel_map id))
            row
        in
        List.map
          (function
            | Matched rows -> Matched (List.map remap rows)
            | Created row -> Created (remap row))
          outcomes
  in
  let matched_rows =
    List.concat_map
      (function Matched rows -> rows | Created _ -> [])
      outcomes
  in
  let created_rows =
    List.filter_map
      (function Created row -> Some row | Matched _ -> None)
      outcomes
  in
  let columns = Table.columns t @ List.concat_map pattern_vars patterns in
  (* 4. ON MATCH / ON CREATE as atomic SETs over the two sub-tables *)
  let g = apply_set_atomic config ~stats g matched_rows columns on_match in
  let g = apply_set_atomic config ~stats g created_rows columns on_create in
  (* 5. result table: Tmatch â Tcreate, in original record order *)
  let rows =
    List.concat_map
      (function Matched rows -> rows | Created row -> [ row ])
      outcomes
  in
  (g, Table.make columns rows)

let run config ~stats (g, t) ~mode ~patterns ~on_create ~on_match =
  match mode with
  | Merge_legacy -> run_legacy config ~stats (g, t) ~patterns ~on_create ~on_match
  | Merge_all | Merge_same | Merge_grouping | Merge_weak_collapse
  | Merge_collapse ->
      run_revised config ~stats (g, t) ~mode ~patterns ~on_create ~on_match
