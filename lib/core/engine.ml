(** The clause-by-clause execution engine.

    Implements the semantics framework of Section 8.1: a clause denotes a
    function on graph–table pairs, [[C S]](G,T) = [[S]]([[C]](G,T)), and a
    statement's output is [[Q]](G, T()) where T() is the unit table.
    Reading clauses leave the graph untouched; update clauses dispatch on
    the configured regime (legacy vs revised). *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval
module Matcher = Cypher_matcher.Matcher
module Plan = Cypher_matcher.Plan

let ctx_of config graph row = Runtime.ctx config graph row

(* ------------------------------------------------------------------ *)
(* Plan memo                                                          *)
(* ------------------------------------------------------------------ *)

(** Cross-execution cache of hoisted match plans, carried by a prepared
    statement ({!Api.prepare}).  Slots are keyed by the statement's
    top-level clause index — stable across executions of the same
    compiled query, which also fixes each clause's driving-table columns
    and hence variable boundness, the only per-row input plan choice
    depends on.  The memo remembers the property-index key set it was
    filled under and drops every slot when that set changes, so a plan
    compiled before [Graph.add_prop_index] is never served afterwards
    (stale plans are merely suboptimal, never incorrect — planned
    matching re-filters candidates — but a cached label scan would
    silently forfeit the index). *)
module Plan_memo = struct
  type t = {
    mutable slots : (int * Plan.t option list) list;
    mutable fingerprint : (string * string) list;
  }

  let create () = { slots = []; fingerprint = [] }

  let clear t =
    t.slots <- [];
    t.fingerprint <- []

  (** Invalidate when the graph's property-index key set differs from
      the one the memo was filled under. *)
  let sync t g =
    let fp = Graph.prop_index_keys g in
    if fp <> t.fingerprint then (
      t.slots <- [];
      t.fingerprint <- fp)

  let find t key = List.assoc_opt key t.slots

  let store t key plans =
    t.slots <- (key, plans) :: List.remove_assoc key t.slots
end

(* ------------------------------------------------------------------ *)
(* Reading clauses                                                    *)
(* ------------------------------------------------------------------ *)

(* Plan hoisting: within one MATCH execution every driving row has the
   same columns, so plan choice (which depends on variable boundness and
   graph statistics only) is uniform across rows and can be computed
   once from a representative row instead of per row.  The exception is
   a multi-pattern MATCH whose later patterns reference variables bound
   by earlier patterns of the same clause: the old per-state planning
   saw those intermediate bindings, so such clauses keep per-row
   planning to preserve plan choice (and thus row order) exactly. *)
let hoistable columns patterns =
  let referenced p = expr_free_vars (Pattern_pred [ p ]) in
  let rec go bound = function
    | [] -> true
    | p :: rest ->
        List.for_all (fun v -> not (List.mem v bound)) (referenced p)
        && go
             (List.filter (fun v -> not (List.mem v columns)) (pattern_vars p)
             @ bound)
             rest
  in
  go [] patterns

let hoisted_plans ?slot config g t patterns =
  if not (Runtime.planner_on config) then None
  else
    match Table.rows t with
    | [] -> None
    | row0 :: _ ->
        if not (hoistable (Table.columns t) patterns) then None
        else
          let fresh () =
            let ctx = ctx_of config g row0 in
            List.map (fun p -> Plan.make ctx row0 p) patterns
          in
          Some
            (match slot with
            | None -> fresh ()
            | Some (memo, key) -> (
                Plan_memo.sync memo g;
                match Plan_memo.find memo key with
                | Some plans -> plans
                | None ->
                    let plans = fresh () in
                    (* never memoize plans made against an empty graph:
                       they are all [None] and would pin naive matching
                       after the graph grows *)
                    if Graph.node_count g > 0 then
                      Plan_memo.store memo key plans;
                    plans))

(* Slot seeding: a read clause compiles its output column set to a slot
   layout once, and re-lays each driving row out over it before
   expansion.  Every bind in the match/unwind inner loop is then an
   array copy plus an index store, and every lookup an index load.
   Pattern variables start absent and are filled by the matcher, so the
   layout is stable across the whole expansion and the final
   [Table.make] projection is a no-op per row. *)
let row_seeder columns = Record.seed (Slots.of_names columns)

(** [compile_match ?slot config (g, t) ~optional ~patterns ~where] is
    the MATCH clause's output columns and per-driving-row folds.
    [fold_row f row acc] folds [f] over the embeddings of [row] that
    pass [where], in match order — [where] is evaluated at the fold's
    leaf, so a rejected embedding is never kept — or over [row] padded
    with nulls when an OPTIONAL MATCH finds none.  [tally], for a plain
    MATCH without WHERE, counts the embeddings of a row through the
    matcher's counting leaf, building no row. *)
let compile_match ?slot config (g, t) ~optional ~patterns ~where =
  let vars = List.concat_map pattern_vars patterns in
  let columns = Table.dedup_columns (Table.columns t @ vars) in
  let plans = hoisted_plans ?slot config g t patterns in
  let seed = row_seeder columns in
  let mode = Runtime.match_mode_of config in
  let planner = Runtime.planner_on config in
  let base = Runtime.ctx config g Record.empty in
  let fold_patterns row sink acc =
    Matcher.fold_patterns ~mode ~planner ?plans (Ctx.with_row base row) patterns
      sink acc
  in
  let keep =
    match where with
    | None -> fun _ -> true
    | Some cond ->
        fun row -> Tri.to_bool_where (Eval.eval_truth (Ctx.with_row base row) cond)
  in
  let fold_row f row acc =
    let row = seed row in
    let found = ref false in
    let acc =
      fold_patterns row
        (Matcher.Rows
           (fun row' acc ->
             if keep row' then begin
               found := true;
               f row' acc
             end
             else acc))
        acc
    in
    if optional && not !found then
      (* pad the pattern variables with nulls *)
      f
        (List.fold_left
           (fun r v -> if Record.mem r v then r else Record.bind r v Value.Null)
           row vars)
        acc
    else acc
  in
  let tally =
    if optional || Option.is_some where then None
    else Some (fun row -> fold_patterns (seed row) (Matcher.Tally succ) 0)
  in
  (columns, fold_row, tally)

let exec_match ?slot config (g, t) ~optional ~patterns ~where =
  let columns, fold_row, _ =
    compile_match ?slot config (g, t) ~optional ~patterns ~where
  in
  let cons row acc = row :: acc in
  (* the fold accumulates every driving row's embeddings in reverse;
     [make_rev] puts them back in order in the pass that builds the
     result table *)
  (g, Table.make_rev columns (Table.fold (fold_row cons) t []))

(** A MATCH followed directly by an aggregating projection: each
    embedding is folded straight into the projection's accumulators, so
    no driving table is built.  Driving rows are folded in order on the
    calling domain; a projection that reads no column takes the
    matcher's counting leaf and builds no row at all.  Plan hoisting
    behaves as in {!exec_match}. *)
let exec_match_aggregate ?slot config (g, t) ~optional ~patterns ~where proj =
  let columns, fold_row, tally =
    compile_match ?slot config (g, t) ~optional ~patterns ~where
  in
  match Projection.aggregation config g ~columns proj with
  | None -> Ctx.internal "fused MATCH: the projection does not aggregate"
  | Some agg ->
      (match tally with
      | Some tally when not (Projection.reads_rows agg) ->
          Table.fold (fun row () -> Projection.add_count agg (tally row)) t ()
      | _ ->
          Table.fold
            (fun row () -> fold_row (fun row' () -> Projection.add agg row') row ())
            t ());
      Projection.finish agg

let exec_unwind config (g, t) ~source ~alias =
  let columns = Table.columns t @ [ alias ] in
  let seed = row_seeder columns in
  let base = Runtime.ctx config g Record.empty in
  let expand row =
    match Eval.eval (Ctx.with_row base row) source with
    | Value.Null -> []
    | Value.List l ->
        let row = seed row in
        List.map (fun v -> Record.bind row alias v) l
    | v ->
        (* UNWIND is defined on lists (and NULL, which contributes no
           rows); anything else is a type error, not a singleton list *)
        Errors.eval_error "Type mismatch: expected List, got %s"
          (Value.to_string v)
  in
  (g, Table.concat_map columns expand t)

(* ------------------------------------------------------------------ *)
(* Clause dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let rec exec_clause config ~stats (g, t) (c : clause) =
  match c with
  | Match { optional; patterns; where } ->
      exec_match config (g, t) ~optional ~patterns ~where
  | Unwind { source; alias } -> exec_unwind config (g, t) ~source ~alias
  | With proj | Return proj -> Projection.run config (g, t) proj
  | Create patterns -> Create.run config (g, t) patterns
  | Set items -> Set_clause.run config (g, t) items
  | Remove items -> Remove_clause.run config (g, t) items
  | Delete { detach; targets } -> Delete_clause.run config (g, t) ~detach targets
  | Merge { mode; patterns; on_create; on_match } ->
      Merge.run config ~stats (g, t) ~mode ~patterns ~on_create ~on_match
  | Foreach { fe_var; fe_source; fe_body } ->
      exec_foreach config ~stats (g, t) ~fe_var ~fe_source ~fe_body

(** FOREACH: for each record and each element of the list, the body
    update clauses run on a one-record table binding the loop variable.
    The driving table itself is unchanged (the loop variable does not
    leak).  The body clauses follow the configured regime. *)
and exec_foreach config ~stats (g, t) ~fe_var ~fe_source ~fe_body =
  let g =
    Table.fold
      (fun row g ->
        match Eval.eval (ctx_of config g row) fe_source with
        | Value.Null -> g
        | Value.List l ->
            List.fold_left
              (fun g v ->
                let inner_row = Record.bind row fe_var v in
                let inner =
                  Table.make
                    (Table.columns t @ [ fe_var ])
                    [ inner_row ]
                in
                let g, _ =
                  List.fold_left
                    (fun (g, t) c -> exec_clause config ~stats (g, t) c)
                    (g, inner) fe_body
                in
                g)
              g l
        | v ->
            Errors.eval_error "FOREACH requires a list, got %s"
              (Value.to_string v))
      t g
  in
  (g, t)

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

(** Executes a query on a graph–table pair.  UNION branches run
    left-to-right, each on the unit table against the graph produced by
    the previous branch; their output tables are combined by bag union
    (UNION ALL) or set union (UNION), as in Section 8.2. *)
(* PROFILE: each top-level clause (including those of UNION branches) is
   timed with the monotonic clock and tagged with the row count of the
   table it produced; the wall-times are exact per-clause costs. *)
let profile_clause profile c f =
  match profile with
  | None -> f ()
  | Some acc ->
      let label =
        let s = Cypher_ast.Pretty.clause_to_string c in
        if String.length s <= 60 then s else String.sub s 0 57 ^ "..."
      in
      let (g, t), ns = Cypher_util.Mclock.span_ns f in
      acc :=
        { Stats.pf_clause = label; pf_rows = Table.row_count t; pf_ns = ns }
        :: !acc;
      (g, t)

(** Executes a query on a graph–table pair.  UNION branches run
    left-to-right, each on the unit table against the graph produced by
    the previous branch; their output tables are combined by bag union
    (UNION ALL) or set union (UNION), as in Section 8.2.  [memo] (with
    [counter] numbering the top-level clauses) lets repeated executions
    of the same compiled query reuse hoisted match plans; see
    {!Plan_memo}. *)
let rec exec_query config ~stats ?profile ?memo ~counter (g, t) (q : query) =
  let exec_one (g, t) c =
    let key = !counter in
    incr counter;
    profile_clause profile c (fun () ->
        match c with
        | Match { optional; patterns; where } ->
            let slot = Option.map (fun m -> (m, key)) memo in
            exec_match ?slot config (g, t) ~optional ~patterns ~where
        | c -> exec_clause config ~stats (g, t) c)
  in
  let rec run (g, t) = function
    | [] -> (g, t)
    (* [MATCH ... WITH/RETURN <aggregates>] fuses into one fold.  Under
       PROFILE the clauses stay separate, so per-clause row counts
       remain exact; that materialising run is the reference for the
       fused one. *)
    | Match { optional; patterns; where }
      :: (With proj | Return proj)
      :: rest
      when Option.is_none profile
           && List.exists (fun it -> expr_has_agg it.item_expr) proj.proj_items
      ->
        let key = !counter in
        (* the fused pair consumes both clause slots, keeping plan-memo
           keys aligned with the unfused numbering *)
        counter := !counter + 2;
        let slot = Option.map (fun m -> (m, key)) memo in
        run
          (exec_match_aggregate ?slot config (g, t) ~optional ~patterns ~where proj)
          rest
    | c :: rest -> run (exec_one (g, t) c) rest
  in
  let g, t1 = run (g, t) q.clauses in
  match q.union with
  | None -> (g, t1)
  | Some (all, q') ->
      let g, t2 =
        exec_query config ~stats ?profile ?memo ~counter (g, Table.unit) q'
      in
      if Table.columns t1 <> Table.columns t2 then
        Errors.eval_error
          "UNION branches must produce the same columns (%s vs %s)"
          (String.concat ", " (Table.columns t1))
          (String.concat ", " (Table.columns t2))
      else if all then (g, Table.bag_union t1 t2)
      else (g, Table.union t1 t2)

(** [output config g q] is output(Q, G) of Section 8.1: runs the whole
    statement on the unit table.  Under the legacy regime, graph validity
    is only checked here, at the statement boundary — mirroring Neo4j's
    commit-time dangling check (Section 4.2). *)
let output ~stats ?profile ?memo config g (q : query) =
  let g', t' =
    exec_query config ~stats ?profile ?memo ~counter:(ref 0) (g, Table.unit) q
  in
  (match config.Config.mode with
  | Config.Legacy ->
      let dangling = Graph.dangling_rels g' in
      if dangling <> [] then
        Errors.fail
          (Errors.Statement_dangling
             (List.map (fun (r : Graph.rel) -> r.Graph.r_id) dangling))
  | Config.Atomic ->
      (* the revised semantics cannot produce dangling relationships *)
      assert (Graph.is_wellformed g'));
  (g', t')
