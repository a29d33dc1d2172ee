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

(* The per-row expansions of MATCH and UNWIND read only the immutable
   input graph [g] — under the revised semantics a clause never sees its
   own writes — so fanning the driving table out over the domain pool is
   unobservable: the ordered gather reproduces the serial row order
   exactly (DESIGN.md, "Parallel read phases"). *)

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

let exec_match ?slot config (g, t) ~optional ~patterns ~where =
  let vars = List.concat_map pattern_vars patterns in
  let columns = Table.columns t @ vars in
  let plans = hoisted_plans ?slot config g t patterns in
  let seed = row_seeder columns in
  let mode = Runtime.match_mode_of config in
  let planner = Runtime.planner_on config in
  let pad row =
    (* pad the pattern variables with nulls *)
    List.fold_left
      (fun r v -> if Record.mem r v then r else Record.bind r v Value.Null)
      row vars
  in
  let expand row =
    let row = seed row in
    let matches =
      Matcher.match_patterns ~mode ~planner ?plans (ctx_of config g row)
        patterns
    in
    let matches =
      match where with
      | None -> matches
      | Some cond ->
          List.filter
            (fun row' ->
              Tri.to_bool_where (Eval.eval_truth (ctx_of config g row') cond))
            matches
    in
    if matches = [] && optional then [ pad row ] else matches
  in
  match (Table.rows t, where) with
  | [ row ], None ->
      (* single driving row, no WHERE (every first MATCH): consume the
         matcher's reversed accumulation directly and restore row order
         in the same pass that builds the result table — one traversal
         of a possibly very large expansion instead of two.  WHERE-d
         clauses keep the per-row [expand] path so predicate evaluation
         order (and thus any evaluation error) is unchanged. *)
      let row = seed row in
      let matches_rev =
        Matcher.match_patterns_rev ~mode ~planner ?plans (ctx_of config g row)
          patterns
      in
      let rows_rev =
        if matches_rev = [] && optional then [ pad row ] else matches_rev
      in
      (g, Table.make_rev columns rows_rev)
  | _ ->
      ( g,
        Table.concat_map_par
          ~parallelism:(Runtime.parallelism_of config)
          columns expand t )

(** Fused [MATCH ... RETURN count( * ) AS n]: counts embeddings per
    driving row without materialising the expanded table.  Restricted by
    the caller to a non-OPTIONAL, WHERE-less MATCH followed directly by
    a bare count( * ) RETURN — exactly the shape whose unfused execution
    puts every embedding through record binding, table projection and a
    single global aggregation group just to take the list's length.
    Plan hoisting behaves as in {!exec_match}. *)
let exec_match_count ?slot config (g, t) ~patterns ~name =
  let plans = hoisted_plans ?slot config g t patterns in
  let seed =
    row_seeder (Table.columns t @ List.concat_map pattern_vars patterns)
  in
  let total =
    Table.fold
      (fun row acc ->
        let row = seed row in
        acc
        + Matcher.count_patterns
            ~mode:(Runtime.match_mode_of config)
            ~planner:(Runtime.planner_on config) ?plans (ctx_of config g row)
            patterns)
      t 0
  in
  (g, Table.make [ name ] [ Record.of_list [ (name, Value.Int total) ] ])

let exec_unwind config (g, t) ~source ~alias =
  let columns = Table.columns t @ [ alias ] in
  let seed = row_seeder columns in
  let expand row =
    match Eval.eval (ctx_of config g row) source with
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
  ( g,
    Table.concat_map_par ~parallelism:(Runtime.parallelism_of config) columns
      expand t )

(* ------------------------------------------------------------------ *)
(* Clause dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let rec exec_clause config ~stats (g, t) (c : clause) =
  match c with
  | Match { optional; patterns; where } ->
      exec_match config (g, t) ~optional ~patterns ~where
  | Unwind { source; alias } -> exec_unwind config (g, t) ~source ~alias
  | With proj | Return proj -> Projection.run config (g, t) proj
  | Create patterns -> Create.run config ~stats (g, t) patterns
  | Set items -> Set_clause.run config ~stats (g, t) items
  | Remove items -> Remove_clause.run config ~stats (g, t) items
  | Delete { detach; targets } ->
      Delete_clause.run config ~stats (g, t) ~detach targets
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
   table it produced.  In serial mode the wall-times are exact per-clause
   costs; under parallelism the read phases overlap domain scheduling, so
   the profile header labels the run as parallel (see [Explain]). *)
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
    (* [MATCH ... RETURN count( * )] fuses into a counting traversal.  The
       restriction to a final plain-MATCH/bare-count( * ) pair keeps the
       observable behaviour exactly that of the unfused pipeline (same
       embeddings enumerated in the same order, same single-row output
       table); under PROFILE the clauses stay separate so per-clause row
       counts remain exact. *)
    | [ Match { optional = false; patterns; where = None }; Return proj ]
      when Option.is_none profile
           && Option.is_some (Projection.count_star_alias proj) ->
        let name = Option.get (Projection.count_star_alias proj) in
        let key = !counter in
        (* the fused pair consumes both clause slots, keeping plan-memo
           keys aligned with the unfused numbering *)
        counter := !counter + 2;
        let slot = Option.map (fun m -> (m, key)) memo in
        exec_match_count ?slot config (g, t) ~patterns ~name
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
let output ?(stats = Stats.null) ?profile ?memo config g (q : query) =
  let g', t' =
    exec_query config ~stats ?profile ?memo ~counter:(ref 0) (g, Table.unit) q
  in
  Stats.set_rows stats (Table.row_count t');
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
