(** Pattern matching: the relation (p, G, u) ⊨ π of Section 8.1.

    Matching extends a record (the assignment u) with bindings for the
    pattern's variables, producing every extension that embeds the
    pattern into the graph.  Cypher's *relationship isomorphism* is
    enforced: distinct relationship patterns within one MATCH (across all
    its comma-separated patterns) must bind distinct relationships —
    including every edge traversed by a variable-length step (Section 2).

    Property predicates in patterns use ternary equality, so a [null]
    property value in a pattern never matches (Example 5's discipline). *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval

(** Which embeddings count as matches.  [Iso] is Cypher's relationship
    isomorphism: distinct relationship patterns bind distinct
    relationships.  [Homo] allows a relationship to be bound by several
    pattern positions — the homomorphism-based regime the paper plans
    for later Cypher versions (Section 6, Example 7).  Variable-length
    steps keep their walks edge-distinct under both regimes, which is
    the "suitable restriction to guarantee finite outputs". *)
type mode = Iso | Homo

(** Matching state: current bindings plus relationships already used by
    this MATCH clause (only consulted under [Iso]). *)
type state = { row : Record.t; used : Iset.t; mode : mode }

let use_rel st id =
  match st.mode with
  | Iso -> { st with used = Iset.add id st.used }
  | Homo -> st

let rel_available st id =
  match st.mode with Iso -> not (Iset.mem id st.used) | Homo -> true

let eval_in ctx row e = Eval.eval (Ctx.with_row ctx row) e

(** [node_check ctx np] compiles the label and property requirements of
    [np] into a [row -> id -> bool] test, evaluated once per pattern
    invocation rather than once per candidate node.  On the compact
    backend the label and property-key symbols are resolved here — the
    per-node test is then pure int-array work against the CSR arenas
    (plus property-expression evaluation, which is row-dependent and
    stays inside); a label that was never interned anywhere cannot be
    carried by any node, so the whole check constant-folds to false.
    Missing nodes never match. *)
let node_check (ctx : Ctx.t) (np : node_pat) :
    Record.t -> Value.node_id -> bool =
  match Graph.csr_view ctx.graph with
  | Some c ->
      let lab_syms = List.map Symtab.find np.np_labels in
      if List.exists Option.is_none lab_syms then fun _ _ -> false
      else
        let lab_syms = List.filter_map Fun.id lab_syms in
        let props = List.map (fun (k, e) -> (Symtab.find k, e)) np.np_props in
        fun row id ->
          let i = Graph.Csr.node_idx c id in
          i >= 0
          && List.for_all (fun sym -> Graph.Csr.has_label_sym c i sym) lab_syms
          && List.for_all
               (fun (sym, e) ->
                 let want = eval_in ctx row e in
                 let have =
                   match sym with
                   | Some sym -> Graph.Csr.node_prop_sym c i sym
                   | None -> Value.Null
                 in
                 Value.equal_tri have want = Tri.True)
               props
  | None -> (
      fun row id ->
        match Graph.node ctx.graph id with
        | None -> false
        | Some n ->
            List.for_all (fun l -> Sset.mem l n.Graph.labels) np.np_labels
            && List.for_all
                 (fun (k, e) ->
                   let want = eval_in ctx row e in
                   Value.equal_tri (Props.get n.Graph.n_props k) want = Tri.True)
                 np.np_props)


let rel_props_satisfy (ctx : Ctx.t) row (rp : rel_pat) (r : Graph.rel) =
  List.for_all
    (fun (k, e) ->
      let want = eval_in ctx row e in
      Value.equal_tri (Props.get r.Graph.r_props k) want = Tri.True)
    rp.rp_props

let rel_satisfies (ctx : Ctx.t) row (rp : rel_pat) (r : Graph.rel) =
  (match rp.rp_types with
  | [] -> true
  | types -> List.mem r.Graph.r_type types)
  && rel_props_satisfy ctx row rp r

(** [compile_rel_check ctx csr rp] is the per-relationship predicate of
    [rp] minus whatever the adjacency enumeration already guarantees:
    the CSR fold filters by interned type symbol (for any arity of type
    list), so under it only property predicates remain — and a
    property-free pattern needs no per-relationship check at all.  The
    persistent path's typed adjacency only covers the single-type case,
    so it keeps the full {!rel_satisfies}. *)
let compile_rel_check (ctx : Ctx.t) ~csr (rp : rel_pat) :
    Record.t -> Graph.rel -> bool =
  if csr then
    match rp.rp_props with
    | [] -> fun _ _ -> true
    | _ -> fun row r -> rel_props_satisfy ctx row rp r
  else fun row r -> rel_satisfies ctx row rp r

(** Would {!bind_var} succeed?  The conflicting-rebinding test alone,
    without committing the binding — for leaf positions whose extended
    state nothing will ever read (see {!count_pattern_planned}). *)
let bind_check st var v =
  match var with
  | None -> true
  | Some name -> (
      match Record.find_opt st.row name with
      | None -> true
      | Some existing -> Value.equal_strict existing v)

(** Binds [var] to [v] in [row], failing (None) on conflicting
    rebinding — the row-level core shared by {!bind_var} and the
    precompiled binding sites. *)
let row_bind_var row var v =
  match var with
  | None -> Some row
  | Some name -> (
      match Record.find_opt row name with
      | None -> Some (Record.bind row name v)
      | Some existing ->
          if Value.equal_strict existing v then Some row else None)

(** Binds [var] to [v] in [st], failing (None) on conflicting rebinding. *)
let bind_var st var v =
  match row_bind_var st.row var v with
  | None -> None
  | Some row -> Some (if row == st.row then st else { st with row })

(** [compile_row_binder row0 var] compiles a conflict-checked binding
    site against the layout of [row0] — the row every row of this
    pattern invocation descends from.  The variable's slot index is
    resolved here, once per invocation, so each per-embedding bind is an
    array probe plus a copying store ({!Record.slot_bind}), with no name
    resolution.  Sound because in-layout binds preserve the slot table
    and out-of-layout binds only append to it, so an index resolved
    against [row0] addresses the same variable in every descendant row.
    Variables outside the layout keep the generic name-resolving
    path. *)
let compile_row_binder row0 (var : string option) :
    Record.t -> Value.t -> Record.t option =
  match var with
  | None -> fun row _ -> Some row
  | Some name -> (
      let tab, _ = Record.slots_view row0 in
      let i = Slots.index tab name in
      if i < 0 then fun row v -> row_bind_var row var v
      else fun row v -> Record.slot_bind row i v)

(** Candidate nodes for a node pattern: the binding if the variable is
    already bound, otherwise all graph nodes. *)
let node_candidates st (np : node_pat) : Value.node_id list option =
  match np.np_var with
  | Some name -> (
      match Record.find_opt st.row name with
      | Some (Value.Node id) -> Some [ id ]
      | Some Value.Null -> Some [] (* null binding never matches *)
      | Some _ -> Some []
      | None -> None)
  | None -> None

let match_node (ctx : Ctx.t) st (np : node_pat) : (state * Value.node_id) list =
  let candidates =
    match node_candidates st np with
    | Some ids -> ids
    | None -> (
        (* anchor the scan on a label when the pattern carries one: the
           store's label index avoids a full node sweep *)
        match np.np_labels with
        | [] -> Graph.node_ids ctx.graph
        | label :: _ -> Graph.nodes_with_label ctx.graph label)
  in
  let check = node_check ctx np in
  List.filter_map
    (fun id ->
      if check st.row id then
        Option.map
          (fun st -> (st, id))
          (bind_var st np.np_var (Value.Node id))
      else None)
    candidates

let flip = function Out -> In | In -> Out | Undirected -> Undirected

(* [fold_adjacent g src_id rp ~reversed f acc] (below) folds [f] over
   the relationships at [src_id] compatible with the direction of [rp]
   (flipped under [~reversed], for hops traversed right-to-left),
   pairing each with the node at the far end, in relationship-id order.
   A single-type pattern is served from the typed adjacency index —
   same id order as filtering the full neighbour list, but without
   touching non-matching types.  Folding (rather than materialising a
   neighbour list) keeps the per-hop allocation at zero; hop
   enumeration is the innermost loop of every MATCH and MERGE.

   Compact-backend fast path: the per-node CSR slices are
   relationship-id-sorted copies of the persistent adjacency sets, so
   filtering them by interned type symbol yields exactly the persistent
   path's enumeration, without set unions or per-rel map lookups.  The
   index-level core passes [f] the dense relationship index and the far
   node id, both plain ints — the relationship *record* is never
   touched, so a caller that only needs ints (the counting leaf, the
   BFS frontier) stays record-free.  Ordering the undirected merge
   compares dense indices directly: the builder assigns them in id
   order, so index order is id order. *)

(** [compile_tymatch rp] resolves the pattern's type names to interned
    symbols, once — the per-relationship test is then an int comparison.
    Interning is append-only and the graph is immutable during a match,
    so resolving at compile time and at enumeration time agree. *)
let compile_tymatch (rp : rel_pat) : int -> bool =
  match rp.rp_types with
  | [] -> fun _ -> true
  | [ ty ] -> (
      match Symtab.find ty with
      | Some sym -> fun t -> t = sym
      | None -> fun _ -> false)
  | types ->
      let syms = List.filter_map Symtab.find types in
      fun t -> List.mem t syms

(** The direction-and-type-resolved core of CSR hop enumeration; the
    public entry points resolve [tymatch]/[dir] per call, the compiled
    hot paths ({!compile_adjacent}, the shortest-path BFS) hoist that
    resolution out of their loops. *)
let fold_adjacent_csr_tyd (c : Graph.Csr.t) ~tymatch ~dir src_id
    (f : int -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let open Graph.Csr in
  let i = node_idx c src_id in
  if i < 0 then acc
  else
    match dir with
    | Out ->
        let hi = c.out_off.(i + 1) in
        let rec go k acc =
          if k >= hi then acc
          else
            go (k + 1)
              (if tymatch c.out_ty.(k) then f c.out_ridx.(k) c.out_far.(k) acc
               else acc)
        in
        go c.out_off.(i) acc
    | In ->
        let hi = c.in_off.(i + 1) in
        let rec go k acc =
          if k >= hi then acc
          else
            go (k + 1)
              (if tymatch c.in_ty.(k) then f c.in_ridx.(k) c.in_far.(k) acc
               else acc)
        in
        go c.in_off.(i) acc
    | Undirected ->
        (* merge the id-sorted out and in slices; a self-loop sits in
           both at the same id and is taken once, from the out side *)
        let ohi = c.out_off.(i + 1) and ihi = c.in_off.(i + 1) in
        let rec merge ko ki acc =
          if ko >= ohi && ki >= ihi then acc
          else if ki >= ihi || (ko < ohi && c.out_ridx.(ko) <= c.in_ridx.(ki))
          then
            let ki =
              if ki < ihi && c.in_ridx.(ki) = c.out_ridx.(ko) then ki + 1
              else ki
            in
            let acc =
              if tymatch c.out_ty.(ko) then f c.out_ridx.(ko) c.out_far.(ko) acc
              else acc
            in
            merge (ko + 1) ki acc
          else
            let acc =
              if tymatch c.in_ty.(ki) then f c.in_ridx.(ki) c.in_far.(ki) acc
              else acc
            in
            merge ko (ki + 1) acc
        in
        merge c.out_off.(i) c.in_off.(i) acc

(** [fold_adjacent_csr_tyd_rev] is {!fold_adjacent_csr_tyd} in exactly
    reversed enumeration order (descending relationship id).  The
    undirected case mirrors the forward merge: descending ids, a
    self-loop — present in both slices at the same id — taken once,
    from the out side. *)
let fold_adjacent_csr_tyd_rev (c : Graph.Csr.t) ~tymatch ~dir src_id
    (f : int -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let open Graph.Csr in
  let i = node_idx c src_id in
  if i < 0 then acc
  else
    match dir with
    | Out ->
        let lo = c.out_off.(i) in
        let rec go k acc =
          if k < lo then acc
          else
            go (k - 1)
              (if tymatch c.out_ty.(k) then f c.out_ridx.(k) c.out_far.(k) acc
               else acc)
        in
        go (c.out_off.(i + 1) - 1) acc
    | In ->
        let lo = c.in_off.(i) in
        let rec go k acc =
          if k < lo then acc
          else
            go (k - 1)
              (if tymatch c.in_ty.(k) then f c.in_ridx.(k) c.in_far.(k) acc
               else acc)
        in
        go (c.in_off.(i + 1) - 1) acc
    | Undirected ->
        let olo = c.out_off.(i) and ilo = c.in_off.(i) in
        let rec merge ko ki acc =
          if ko < olo && ki < ilo then acc
          else if ki < ilo || (ko >= olo && c.out_ridx.(ko) >= c.in_ridx.(ki))
          then
            let ki =
              if ki >= ilo && c.in_ridx.(ki) = c.out_ridx.(ko) then ki - 1
              else ki
            in
            let acc =
              if tymatch c.out_ty.(ko) then f c.out_ridx.(ko) c.out_far.(ko) acc
              else acc
            in
            merge (ko - 1) ki acc
          else
            let acc =
              if tymatch c.in_ty.(ki) then f c.in_ridx.(ki) c.in_far.(ki) acc
              else acc
            in
            merge ko (ki - 1) acc
        in
        merge (c.out_off.(i + 1) - 1) (c.in_off.(i + 1) - 1) acc

let fold_adjacent_csr_idx (c : Graph.Csr.t) src_id (rp : rel_pat) ~reversed
    (f : int -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let tymatch = compile_tymatch rp in
  let dir = if reversed then flip rp.rp_dir else rp.rp_dir in
  fold_adjacent_csr_tyd c ~tymatch ~dir src_id f acc

let fold_adjacent_csr (c : Graph.Csr.t) src_id (rp : rel_pat) ~reversed
    (f : Graph.rel -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  fold_adjacent_csr_idx c src_id rp ~reversed
    (fun j far acc -> f c.Graph.Csr.rel_recs.(j) far acc)
    acc

let fold_adjacent_maps (g : Graph.t) src_id (rp : rel_pat) ~reversed
    (f : Graph.rel -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let out_set, in_set =
    match rp.rp_types with
    | [ ty ] ->
        ( Graph.out_rel_ids_typed g src_id ty,
          Graph.in_rel_ids_typed g src_id ty )
    | _ -> (Graph.out_rel_ids g src_id, Graph.in_rel_ids g src_id)
  in
  let dir = if reversed then flip rp.rp_dir else rp.rp_dir in
  match dir with
  | Out ->
      Iset.fold
        (fun rid acc ->
          let r = Graph.rel_exn g rid in
          f r r.Graph.tgt acc)
        out_set acc
  | In ->
      Iset.fold
        (fun rid acc ->
          let r = Graph.rel_exn g rid in
          f r r.Graph.src acc)
        in_set acc
  | Undirected ->
      (* the incident set is a union of the two adjacency sets, so a
         self-loop appears once without any post-hoc deduplication *)
      Iset.fold
        (fun rid acc ->
          let r = Graph.rel_exn g rid in
          let far =
            if r.Graph.src = src_id then r.Graph.tgt else r.Graph.src
          in
          f r far acc)
        (Iset.union out_set in_set)
        acc

let fold_adjacent (g : Graph.t) src_id (rp : rel_pat) ~reversed
    (f : Graph.rel -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  match Graph.csr_view g with
  | Some c -> fold_adjacent_csr c src_id rp ~reversed f acc
  | None -> fold_adjacent_maps g src_id rp ~reversed f acc

(** A hop's adjacency enumeration with everything resolvable per
    pattern invocation resolved up front: backend dispatch, traversal
    direction, interned type symbols.  {!fold_adjacent} re-resolves all
    three on every call — fine for one-off enumeration, measurable when
    a hop is expanded from 10⁵ states.  The polymorphic field lets one
    compiled value serve any accumulator type. *)
type adj = {
  adj :
    'a. Value.node_id -> (Graph.rel -> Value.node_id -> 'a -> 'a) -> 'a -> 'a;
}

let compile_adjacent (g : Graph.t) (rp : rel_pat) ~reversed : adj =
  match Graph.csr_view g with
  | Some c ->
      let tymatch = compile_tymatch rp in
      let dir = if reversed then flip rp.rp_dir else rp.rp_dir in
      let recs = c.Graph.Csr.rel_recs in
      {
        adj =
          (fun src f acc ->
            fold_adjacent_csr_tyd c ~tymatch ~dir src
              (fun j far acc -> f recs.(j) far acc)
              acc);
      }
  | None ->
      { adj = (fun src f acc -> fold_adjacent_maps g src rp ~reversed f acc) }

(** [compile_adjacent_rev] is {!compile_adjacent} enumerating in exactly
    reversed order — only available on the CSR backend (the persistent
    sets fold ascending only), hence the option. *)
let compile_adjacent_rev (g : Graph.t) (rp : rel_pat) ~reversed : adj option =
  match Graph.csr_view g with
  | Some c ->
      let tymatch = compile_tymatch rp in
      let dir = if reversed then flip rp.rp_dir else rp.rp_dir in
      let recs = c.Graph.Csr.rel_recs in
      Some
        {
          adj =
            (fun src f acc ->
              fold_adjacent_csr_tyd_rev c ~tymatch ~dir src
                (fun j far acc -> f recs.(j) far acc)
                acc);
        }
  | None -> None

(** Folds over the matches of a single (non-variable-length)
    relationship step from [src_id]: states extended with the
    relationship binding, the far node id, and the traversed
    relationship, in relationship-id order. *)
let fold_single_rel ?(reversed = false) ?bind ?check ?adj (ctx : Ctx.t) st
    src_id (rp : rel_pat)
    (f : state -> Value.node_id -> Graph.rel -> 'a -> 'a) (acc : 'a) : 'a =
  (* callers on the hot path pass binding sites, relationship checks and
     adjacency enumeration compiled once per pattern invocation; the
     defaults recompute them per relationship (or per state), which is
     what the generic path always did *)
  let bind =
    match bind with
    | Some b -> b
    | None -> fun row v -> row_bind_var row rp.rp_var v
  in
  let check =
    match check with
    | Some c -> c
    | None -> fun row r -> rel_satisfies ctx row rp r
  in
  let body (r : Graph.rel) far acc =
    if not (rel_available st r.Graph.r_id) then acc
    else if not (check st.row r) then acc
    else
      match bind st.row (Value.Rel r.Graph.r_id) with
      | None -> acc
      | Some row -> (
          (* one state allocation for the used-set and row updates
             together (the split use_rel-then-bind form allocated two) *)
          match st.mode with
          | Iso ->
              f { st with used = Iset.add r.Graph.r_id st.used; row } far r acc
          | Homo -> f (if row == st.row then st else { st with row }) far r acc)
  in
  match adj with
  | Some a -> a.adj src_id body acc
  | None -> fold_adjacent ctx.graph src_id rp ~reversed body acc

(** Matches a variable-length step: all edge-distinct walks from
    [src_id] whose length lies within the range.  The relationship
    variable (if any) binds to the list of traversed relationships.
    Under [~reversed] the walk is explored from the step's right
    endpoint but reported in the pattern's left-to-right order. *)
let match_varlength ?(reversed = false) (ctx : Ctx.t) st src_id (rp : rel_pat)
    lo hi : (state * Value.node_id * Graph.rel list) list =
  let results = ref [] in
  (* [walk] keeps the walk's own edges distinct — under both matching
     regimes, so that unbounded ranges stay finite *)
  let rec explore st walk node rels_rev len =
    if len >= lo then begin
      let rels = if reversed then rels_rev else List.rev rels_rev in
      results := (st, node, rels) :: !results
    end;
    if match hi with Some h -> len < h | None -> true then
      fold_adjacent ctx.graph node rp ~reversed
        (fun (r : Graph.rel) far () ->
          if
            (not (Iset.mem r.Graph.r_id walk))
            && rel_available st r.Graph.r_id
            && rel_satisfies ctx st.row rp r
          then
            explore
              (use_rel st r.Graph.r_id)
              (Iset.add r.Graph.r_id walk)
              far (r :: rels_rev) (len + 1))
        ()
  in
  explore st Iset.empty src_id [] 0;
  List.filter_map
    (fun (st, far, rels) ->
      let rel_list =
        Value.List (List.map (fun (r : Graph.rel) -> Value.Rel r.Graph.r_id) rels)
      in
      Option.map (fun st -> (st, far, rels)) (bind_var st rp.rp_var rel_list))
    (List.rev !results)

(** Folds [emit] over the matches of one whole path pattern left-to-right
    from state [st] — the naive enumeration: anchor on [pat_start], walk
    the steps in syntactic order.  [emit] is called once per embedding,
    in traversal order; materialising a state list is just one choice of
    [emit] (see {!match_pattern_naive}), counting is another
    (see {!count_patterns}). *)
let fold_pattern_naive (ctx : Ctx.t) st (p : pattern)
    (emit : state -> 'a -> 'a) (acc0 : 'a) : 'a =
  let starts = match_node ctx st p.pat_start in
  (* the path value is only assembled when the pattern is named; an
     anonymous pattern skips the per-embedding list building entirely. *)
  let named = p.pat_var <> None in
  (* far-node checks, binding sites and relationship predicates compiled
     once per pattern, not once per embedding *)
  let csr = Graph.csr_view ctx.graph <> None in
  let compiled_steps =
    List.map
      (fun (rp, np) ->
        ( rp,
          node_check ctx np,
          compile_row_binder st.row np.np_var,
          compile_row_binder st.row rp.rp_var,
          compile_rel_check ctx ~csr rp,
          compile_adjacent ctx.graph rp ~reversed:false ))
      p.pat_steps
  in
  let rec steps st node_id nodes_rev rels_rev rest acc =
    match rest with
    | [] ->
        if not named then emit st acc
        else
          let path =
            Value.Path
              {
                Value.path_nodes = List.rev nodes_rev;
                path_rels = List.rev rels_rev;
              }
          in
          (match bind_var st p.pat_var path with
          | None -> acc
          | Some st -> emit st acc)
    | (rp, check, fbind, rbind, rcheck, adj) :: rest ->
        let far_step st far rels acc =
          if not (check st.row far) then acc
          else
            match fbind st.row (Value.Node far) with
            | None -> acc
            | Some row ->
                let st = if row == st.row then st else { st with row } in
                if not named then steps st far nodes_rev rels_rev rest acc
                else
                  steps st far (far :: nodes_rev)
                    (List.rev_append
                       (List.map (fun (r : Graph.rel) -> r.Graph.r_id) rels)
                       rels_rev)
                    rest acc
        in
        (match rp.rp_range with
        | None ->
            fold_single_rel ~bind:rbind ~check:rcheck ~adj ctx st node_id rp
              (fun st far r acc ->
                far_step st far (if named then [ r ] else []) acc)
              acc
        | Some (lo, hi) ->
            let lo = Option.value ~default:1 lo in
            List.fold_left
              (fun acc (st, far, rels) -> far_step st far rels acc)
              acc
              (match_varlength ctx st node_id rp lo hi))
  in
  List.fold_left
    (fun acc (st, start_id) ->
      steps st start_id
        (if named then [ start_id ] else [])
        [] compiled_steps acc)
    acc0 starts

(* ------------------------------------------------------------------ *)
(* Planned execution                                                  *)
(* ------------------------------------------------------------------ *)

(** Candidate nodes for a planned anchor.  Bound variables and index
    lookups still pass through {!node_satisfies}, so an index bucket may
    safely over-approximate (it is re-filtered). *)
let anchor_candidates (ctx : Ctx.t) st (plan : Plan.t) : Value.node_id list =
  let np = plan.Plan.p_anchor in
  match plan.Plan.p_anchor_kind with
  | Plan.Anchor_bound -> (
      match node_candidates st np with Some ids -> ids | None -> [])
  | Plan.Anchor_prop_index { pi_label; pi_key; pi_value } -> (
      let v = eval_in ctx st.row pi_value in
      match Graph.nodes_with_prop ctx.graph ~label:pi_label ~key:pi_key v with
      | Some ids -> ids
      | None -> Graph.nodes_with_label ctx.graph pi_label)
  | Plan.Anchor_label label -> Graph.nodes_with_label ctx.graph label
  | Plan.Anchor_scan -> Graph.node_ids ctx.graph

exception Not_deferrable

(** [fold_pattern_planned_deferred ctx st plan p emit acc0] is the
    fast path of {!fold_pattern_planned}: row construction is
    *deferred to the leaf*.  The recursion threads raw node/relationship
    ids through per-invocation scratch arrays and builds one cell array,
    one row and one state per *emitted* embedding — instead of a copied
    row plus a state record per hop of every partial embedding, most of
    which fail a later hop and are thrown away.

    Applicability ([None] falls back to the eager fold):
    - the pattern is anonymous and has no variable-length step;
    - every pattern variable maps to a distinct, currently-absent slot of
      the row's layout — so every eager bind would have succeeded without
      conflict, and the leaf write-out produces the same cells;
    - no property expression of the pattern reads a pattern variable —
      so checking against the invocation's starting row evaluates
      exactly as the eager fold's partial rows would.

    Under [Iso], within-pattern relationship distinctness is a linear
    scan of the (≤ hop-count) scratch ids instead of a per-hop set
    insert; the used-set union happens once per emitted row.  Traversal
    order, check order and emitted rows are identical to the eager fold,
    which is what keeps the two byte-identical through the pipeline.

    When [emit_row] is supplied the consumer wants rows only (the last
    pattern of a tuple): the leaf then skips the used-set union and the
    state allocation altogether and [emit] is never called.

    Under [~natural] the whole enumeration runs in exactly *reversed*
    traversal order — reversed anchor list, descending-id adjacency —
    so a consumer that prepends obtains the rows in natural (forward)
    order without a final reversal.  Requires the CSR backend (the
    persistent adjacency sets fold ascending only) and a fully
    property-free pattern: with no expressions to evaluate, enumeration
    order is unobservable except through the row order the caller is
    deliberately inverting. *)
let fold_pattern_planned_deferred ?emit_row ?(natural = false) (ctx : Ctx.t)
    st (plan : Plan.t) (p : pattern) (emit : state -> 'a -> 'a) (acc0 : 'a) :
    'a option =
  let tab, cells0 = Record.slots_view st.row in
  if
    p.pat_var <> None
    || List.exists
         (fun (h : Plan.hop) -> h.Plan.h_rp.rp_range <> None)
         plan.Plan.p_hops
  then None
  else
    try
      let slot_of var =
        match var with
        | None -> -1
        | Some name ->
            let i = Slots.index tab name in
            if i < 0 || Array.unsafe_get cells0 i != Slots.absent then
              raise Not_deferrable;
            i
      in
      let anchor_slot = slot_of plan.Plan.p_anchor.np_var in
      let hops_arr = Array.of_list plan.Plan.p_hops in
      let n_hops = Array.length hops_arr in
      let far_slot =
        Array.map (fun (h : Plan.hop) -> slot_of h.Plan.h_far.np_var) hops_arr
      in
      let rel_slot =
        Array.map (fun (h : Plan.hop) -> slot_of h.Plan.h_rp.rp_var) hops_arr
      in
      let all_slots =
        List.filter
          (fun i -> i >= 0)
          (anchor_slot :: (Array.to_list far_slot @ Array.to_list rel_slot))
      in
      if
        List.length (List.sort_uniq Int.compare all_slots)
        <> List.length all_slots
      then raise Not_deferrable;
      let pvars =
        List.filter_map Fun.id
          (p.pat_start.np_var
          :: List.concat_map
               (fun (rp, np) -> [ rp.rp_var; np.np_var ])
               p.pat_steps)
      in
      let closed (_, e) =
        List.for_all (fun v -> not (List.mem v pvars)) (expr_free_vars e)
      in
      if
        not
          (List.for_all closed plan.Plan.p_anchor.np_props
          && Array.for_all
               (fun (h : Plan.hop) ->
                 List.for_all closed h.Plan.h_far.np_props
                 && List.for_all closed h.Plan.h_rp.rp_props)
               hops_arr)
      then raise Not_deferrable;
      if
        natural
        && not
             (plan.Plan.p_anchor.np_props = []
             && Array.for_all
                  (fun (h : Plan.hop) ->
                    h.Plan.h_far.np_props = [] && h.Plan.h_rp.rp_props = [])
                  hops_arr)
      then raise Not_deferrable;
      let anchor_check = node_check ctx plan.Plan.p_anchor in
      let csr = Graph.csr_view ctx.graph <> None in
      let row0 = st.row in
      let iso = st.mode = Iso in
      let compile_adj (h : Plan.hop) =
        if natural then
          match
            compile_adjacent_rev ctx.graph h.Plan.h_rp
              ~reversed:h.Plan.h_reversed
          with
          | Some a -> a
          | None -> raise Not_deferrable
        else
          compile_adjacent ctx.graph h.Plan.h_rp
            ~reversed:h.Plan.h_reversed
      in
      let compiled =
        Array.map
          (fun (h : Plan.hop) ->
            ( h,
              node_check ctx h.Plan.h_far,
              compile_rel_check ctx ~csr h.Plan.h_rp,
              compile_adj h ))
          hops_arr
      in
      (* the current branch's ids by hop depth; DFS writes depth [d]
         before descending, so indices below the current depth always
         hold this branch's ancestors *)
      let far_ids = Array.make (max n_hops 1) 0 in
      let rel_ids = Array.make (max n_hops 1) 0 in
      let anchor_id = ref 0 in
      let needed_later from_i pos =
        let rec go j =
          j < n_hops && (hops_arr.(j).Plan.h_src_pos = pos || go (j + 1))
        in
        go from_i
      in
      let anchor_store = needed_later 1 plan.Plan.p_anchor_pos in
      let store =
        Array.mapi
          (fun i (h : Plan.hop) -> needed_later (i + 2) h.Plan.h_far_pos)
          hops_arr
      in
      let leaf_row () =
        let cells = Array.copy cells0 in
        if anchor_slot >= 0 then
          cells.(anchor_slot) <- Value.Node !anchor_id;
        for d = 0 to n_hops - 1 do
          if far_slot.(d) >= 0 then
            cells.(far_slot.(d)) <- Value.Node far_ids.(d);
          if rel_slot.(d) >= 0 then
            cells.(rel_slot.(d)) <- Value.Rel rel_ids.(d)
        done;
        Record.of_slots tab cells
      in
      let emit_leaf =
        match emit_row with
        | Some f -> fun acc -> f (leaf_row ()) acc
        | None ->
            fun acc ->
              let used =
                if iso then begin
                  let u = ref st.used in
                  for d = 0 to n_hops - 1 do
                    u := Iset.add rel_ids.(d) !u
                  done;
                  !u
                end
                else st.used
              in
              emit { row = leaf_row (); used; mode = st.mode } acc
      in
      let rec hops d last_pos last_id nodes_at acc =
        if d >= n_hops then emit_leaf acc
        else
          let h, check, rcheck, adj = compiled.(d) in
          let src_id =
            if h.Plan.h_src_pos = last_pos then last_id
            else Imap.find h.Plan.h_src_pos nodes_at
          in
          adj.adj src_id
            (fun (r : Graph.rel) far acc ->
              let rid = r.Graph.r_id in
              let fresh =
                (not iso)
                || (not (Iset.mem rid st.used))
                   &&
                   let rec scan k =
                     k >= d || (rel_ids.(k) <> rid && scan (k + 1))
                   in
                   scan 0
              in
              if not fresh then acc
              else if not (rcheck row0 r) then acc
              else if not (check row0 far) then acc
              else begin
                rel_ids.(d) <- rid;
                far_ids.(d) <- far;
                hops (d + 1) h.Plan.h_far_pos far
                  (if store.(d) then Imap.add h.Plan.h_far_pos far nodes_at
                   else nodes_at)
                  acc
              end)
            acc
      in
      let anchor_pos = plan.Plan.p_anchor_pos in
      Some
        (List.fold_left
           (fun acc id ->
             if not (anchor_check row0 id) then acc
             else begin
               anchor_id := id;
               hops 0 anchor_pos id
                 (if anchor_store then Imap.singleton anchor_pos id
                  else Imap.empty)
                 acc
             end)
           acc0
           (let cands = anchor_candidates ctx st plan in
            if natural then List.rev cands else cands))
    with Not_deferrable -> None

(** Matches one whole path pattern following a {!Plan.t}: enumerate the
    anchor position first, then each hop from its already-bound side.
    Nodes and traversed relationships are collected by *position* and
    *step index* so the final path value is assembled left-to-right
    regardless of traversal order. *)
let fold_pattern_planned_eager (ctx : Ctx.t) st (p : pattern) (plan : Plan.t)
    (emit : state -> 'a -> 'a) (acc0 : 'a) : 'a =
  let anchor_check = node_check ctx plan.Plan.p_anchor in
  let anchor_bind = compile_row_binder st.row plan.Plan.p_anchor.np_var in
  (* the path value is only assembled when the pattern is named; an
     anonymous pattern skips the per-step relationship bookkeeping.
     Far-node checks, binding sites and relationship predicates are
     compiled once per hop, not once per embedding. *)
  let named = p.pat_var <> None in
  let csr = Graph.csr_view ctx.graph <> None in
  (* The recursion threads the most recently bound position as a plain
     (position, id) pair; the position map only receives entries some
     *later-than-next* hop sources from (plans bind positions in hop
     order, so nothing else ever reads it).  A chain pattern — each hop
     leaving the previous hop's far node — therefore runs with the map
     permanently empty.  A named pattern stores every position: path
     assembly reads them all. *)
  let hops_arr = Array.of_list plan.Plan.p_hops in
  let needed_later from_i pos =
    named
    ||
    let n = Array.length hops_arr in
    let rec go j =
      j < n && (hops_arr.(j).Plan.h_src_pos = pos || go (j + 1))
    in
    go from_i
  in
  let anchor_store = needed_later 1 plan.Plan.p_anchor_pos in
  let compiled_hops =
    List.mapi
      (fun i (h : Plan.hop) ->
        ( h,
          node_check ctx h.Plan.h_far,
          compile_row_binder st.row h.Plan.h_far.np_var,
          compile_row_binder st.row h.Plan.h_rp.rp_var,
          compile_rel_check ctx ~csr h.Plan.h_rp,
          compile_adjacent ctx.graph h.Plan.h_rp ~reversed:h.Plan.h_reversed,
          needed_later (i + 2) h.Plan.h_far_pos ))
      plan.Plan.p_hops
  in
  let rec hops st last_pos last_id nodes_at rels_at rest acc =
    match rest with
    | [] ->
        if not named then emit st acc
        else
          let path =
            Value.Path
              {
                Value.path_nodes =
                  List.init plan.Plan.p_positions (fun i ->
                      Imap.find i nodes_at);
                path_rels =
                  List.concat_map
                    (fun (_, rels) ->
                      List.map (fun (r : Graph.rel) -> r.Graph.r_id) rels)
                    (Imap.bindings rels_at);
              }
          in
          (match bind_var st p.pat_var path with
          | None -> acc
          | Some st -> emit st acc)
    | ((h : Plan.hop), check, fbind, rbind, rcheck, adj, store) :: rest ->
        let src_id =
          if h.Plan.h_src_pos = last_pos then last_id
          else Imap.find h.Plan.h_src_pos nodes_at
        in
        let reversed = h.Plan.h_reversed in
        let far_step st far rels acc =
          if not (check st.row far) then acc
          else
            match fbind st.row (Value.Node far) with
            | None -> acc
            | Some row ->
                let st = if row == st.row then st else { st with row } in
                hops st h.Plan.h_far_pos far
                  (if store then Imap.add h.Plan.h_far_pos far nodes_at
                   else nodes_at)
                  (if named then Imap.add h.Plan.h_step rels rels_at
                   else rels_at)
                  rest acc
        in
        (match h.Plan.h_rp.rp_range with
        | None ->
            fold_single_rel ~reversed ~bind:rbind ~check:rcheck ~adj ctx st
              src_id h.Plan.h_rp
              (fun st far r acc ->
                far_step st far (if named then [ r ] else []) acc)
              acc
        | Some (lo, hi) ->
            let lo = Option.value ~default:1 lo in
            List.fold_left
              (fun acc (st, far, rels) -> far_step st far rels acc)
              acc
              (match_varlength ~reversed ctx st src_id h.Plan.h_rp lo hi))
  in
  let anchor_pos = plan.Plan.p_anchor_pos in
  List.fold_left
    (fun acc id ->
      if not (anchor_check st.row id) then acc
      else
        match anchor_bind st.row (Value.Node id) with
        | None -> acc
        | Some row ->
            let st = if row == st.row then st else { st with row } in
            hops st anchor_pos id
              (if anchor_store then Imap.singleton anchor_pos id
               else Imap.empty)
              Imap.empty compiled_hops acc)
    acc0
    (anchor_candidates ctx st plan)

(** [emit_row], when supplied, replaces [emit] with a row-only consumer
    (the callee may then skip per-embedding state bookkeeping — the
    deferred fold does; the eager fold just adapts). *)
let fold_pattern_planned ?emit_row (ctx : Ctx.t) st (p : pattern)
    (plan : Plan.t) (emit : state -> 'a -> 'a) (acc0 : 'a) : 'a =
  let emit =
    match emit_row with Some f -> fun st acc -> f st.row acc | None -> emit
  in
  match fold_pattern_planned_deferred ?emit_row ctx st plan p emit acc0 with
  | Some acc -> acc
  | None -> fold_pattern_planned_eager ctx st p plan emit acc0

(** [count_pattern_planned ctx st p plan] is
    [fold_pattern_planned ctx st p plan (fun _ n -> n + 1) 0] with one
    extra specialisation: on a final single-relationship anonymous hop of
    an anonymous pattern, matching relationships are counted in place.
    The state [far_step] would build there — relationship marked used,
    far variable bound, a fresh record — is dead at the leaf, so only
    the *checks* run (availability, relationship predicates, far-node
    check, conflicting-rebind test), in exactly the generic path's
    evaluation order.  Only sound for the last pattern of a MATCH tuple:
    an earlier pattern's used-set is consulted by the patterns after it. *)
let count_pattern_planned (ctx : Ctx.t) st (p : pattern) (plan : Plan.t) : int
    =
  if p.pat_var <> None then
    fold_pattern_planned ctx st p plan (fun _ n -> n + 1) 0
  else
    let anchor_check = node_check ctx plan.Plan.p_anchor in
    let compiled_hops =
      List.map
        (fun (h : Plan.hop) -> (h, node_check ctx h.Plan.h_far))
        plan.Plan.p_hops
    in
    let rec hops st nodes_at rest acc =
      match rest with
      | [] -> acc + 1
      | [ ((h : Plan.hop), check) ]
        when h.Plan.h_rp.rp_range = None && h.Plan.h_rp.rp_var = None ->
          (* final hop: count matching relationships without committing
             the extension *)
          let src_id = Imap.find h.Plan.h_src_pos nodes_at in
          let rp = h.Plan.h_rp in
          let far_var = h.Plan.h_far.np_var in
          (match Graph.csr_view ctx.graph with
          | Some c when rp.rp_props = [] ->
              (* record-free on the compact backend: the slice's type
                 filter subsumes [rel_satisfies] when the pattern has no
                 property map, and the used-set test reads the id from
                 the [rel_id] arena — the innermost loop touches only
                 int arrays *)
              fold_adjacent_csr_idx c src_id rp ~reversed:h.Plan.h_reversed
                (fun j far acc ->
                  if
                    rel_available st c.Graph.Csr.rel_id.(j)
                    && check st.row far
                    && bind_check st far_var (Value.Node far)
                  then acc + 1
                  else acc)
                acc
          | _ ->
              fold_adjacent ctx.graph src_id rp ~reversed:h.Plan.h_reversed
                (fun (r : Graph.rel) far acc ->
                  if
                    rel_available st r.Graph.r_id
                    && rel_satisfies ctx st.row rp r
                    && check st.row far
                    && bind_check st far_var (Value.Node far)
                  then acc + 1
                  else acc)
                acc)
      | ((h : Plan.hop), check) :: rest ->
          let src_id = Imap.find h.Plan.h_src_pos nodes_at in
          let far_step st far acc =
            match
              if check st.row far then
                bind_var st h.Plan.h_far.np_var (Value.Node far)
              else None
            with
            | None -> acc
            | Some st -> hops st (Imap.add h.Plan.h_far_pos far nodes_at) rest acc
          in
          (match h.Plan.h_rp.rp_range with
          | None ->
              fold_single_rel ~reversed:h.Plan.h_reversed ctx st src_id
                h.Plan.h_rp
                (fun st far _r acc -> far_step st far acc)
                acc
          | Some (lo, hi) ->
              let lo = Option.value ~default:1 lo in
              List.fold_left
                (fun acc (st, far, _rels) -> far_step st far acc)
                acc
                (match_varlength ~reversed:h.Plan.h_reversed ctx st src_id
                   h.Plan.h_rp lo hi))
    in
    let starts =
      List.filter_map
        (fun id ->
          if anchor_check st.row id then
            Option.map
              (fun st -> (st, Imap.singleton plan.Plan.p_anchor_pos id))
              (bind_var st plan.Plan.p_anchor.np_var (Value.Node id))
          else None)
        (anchor_candidates ctx st plan)
    in
    List.fold_left
      (fun acc (st, nodes_at) -> hops st nodes_at compiled_hops acc)
      0 starts

(** [match_patterns ?mode ?planner ?plans ctx patterns] computes all
    extensions of the context row that embed every pattern; under the
    default [Iso] mode relationship isomorphism is enforced across the
    whole pattern tuple.  [planner] enables cost-guided anchor selection
    and hop orientation (see {!Plan}); the result rows are the same
    either way, possibly in a different order.

    [plans] supplies one precomputed plan option per pattern (as built
    by {!Plan.make} against a representative row): plan selection
    depends only on which variables are bound — uniform across the rows
    of one driving table — and on graph statistics, so hoisting the
    planning out of the per-row loop preserves the result rows while
    eliminating the per-row planning cost.  A [None] entry means naive
    enumeration for that pattern (what per-row planning would also have
    chosen); a list shorter than [patterns] leaves the remaining
    patterns on per-row planning. *)
let match_patterns_rev ?(mode = Iso) ?(planner = false) ?plans (ctx : Ctx.t)
    (patterns : pattern list) : Record.t list =
  (* read-phase boundary: under the compact backend, (re)build the CSR
     snapshot here so the expansion loops below run on it *)
  Graph.ensure_csr ctx.graph;
  let init = { row = ctx.row; used = Iset.empty; mode } in
  let hints = Option.value ~default:[] plans in
  let plan_with hint st p =
    match hint with
    | Some hint -> hint (* [Some None] forces naive enumeration *)
    | None -> if planner then Plan.make ctx st.row p else None
  in
  (* each embedding of a pattern recurses straight into the remaining
     patterns (the order {!count_patterns} also follows); the final
     pattern emits result rows directly — through the row-only leaf when
     planned, which skips the per-embedding state bookkeeping nothing
     will read — so no intermediate state list is ever materialised.
     At 10⁵-row matches this saves several full list traversals. *)
  let emit_last row acc = row :: acc in
  let rec go st i rest acc =
    match rest with
    | [] ->
        (* unreachable while the [patterns = []] guard above holds; a
           structured error keeps a server process alive if it breaks *)
        Ctx.internal "match_patterns_rev: empty pattern list reached the fold"
    | [ p ] -> (
        match plan_with (List.nth_opt hints i) st p with
        | Some plan ->
            fold_pattern_planned ~emit_row:emit_last ctx st p plan
              (fun st acc -> st.row :: acc)
              acc
        | None ->
            fold_pattern_naive ctx st p (fun st acc -> st.row :: acc) acc)
    | p :: rest -> (
        let emit st acc = go st (i + 1) rest acc in
        match plan_with (List.nth_opt hints i) st p with
        | Some plan -> fold_pattern_planned ctx st p plan emit acc
        | None -> fold_pattern_naive ctx st p emit acc)
  in
  match patterns with [] -> [ init.row ] | _ -> go init 0 patterns []

let match_patterns ?mode ?planner ?plans (ctx : Ctx.t)
    (patterns : pattern list) : Record.t list =
  List.rev (match_patterns_rev ?mode ?planner ?plans ctx patterns)

(** [match_patterns_natural ?mode ?plans ctx patterns] attempts the
    fully-inverted enumeration: a single planned pattern run in
    *reversed* traversal order (descending-id CSR adjacency, reversed
    anchor list) with prepend accumulation, so the returned list is
    already in natural (forward) order — the whole match costs exactly
    one list spine, with no final reversal and no consistency
    projection needed downstream.  [None] when the shape doesn't
    qualify (several patterns, no plan, property predicates, persistent
    backend, ...) — the caller falls back to
    {!match_patterns_rev}. *)
let match_patterns_natural ?(mode = Iso) ?(planner = false) ?plans
    (ctx : Ctx.t) (patterns : pattern list) : Record.t list option =
  match patterns with
  | [ p ] -> (
      Graph.ensure_csr ctx.graph;
      let init = { row = ctx.row; used = Iset.empty; mode } in
      let hint =
        match plans with Some (h :: _) -> Some h | _ -> None
      in
      let plan =
        match hint with
        | Some hint -> hint
        | None -> if planner then Plan.make ctx init.row p else None
      in
      match plan with
      | None -> None
      | Some plan ->
          fold_pattern_planned_deferred
            ~emit_row:(fun row acc -> row :: acc)
            ~natural:true ctx init plan p
            (fun st acc -> st.row :: acc)
            [])
  | _ -> None

(** [count_patterns ?mode ?planner ?plans ctx patterns] is
    [List.length (match_patterns ... )] without materialising any state
    list: each pattern's embeddings are folded over directly, recursing
    into the remaining patterns per embedding.  Traversal (and therefore
    any error raised by a property expression) follows exactly the order
    of {!match_patterns}.  The engine uses this to fuse
    [MATCH ... RETURN count( * )] — at 10⁵+ embeddings the dominant cost
    of the materialising path is allocating and promoting the result
    records, which a count never looks at. *)
let count_patterns ?(mode = Iso) ?(planner = false) ?plans (ctx : Ctx.t)
    (patterns : pattern list) : int =
  Graph.ensure_csr ctx.graph;
  let init = { row = ctx.row; used = Iset.empty; mode } in
  let hints = Option.value ~default:[] plans in
  let rec count st i = function
    | [] -> 1
    | p :: rest ->
        let plan_for =
          match List.nth_opt hints i with
          | Some hint -> hint (* [Some None] forces naive enumeration *)
          | None -> if planner then Plan.make ctx st.row p else None
        in
        let last = rest = [] in
        (match plan_for with
        | Some plan ->
            if last then count_pattern_planned ctx st p plan
            else
              fold_pattern_planned ctx st p plan
                (fun st' n -> n + count st' (i + 1) rest)
                0
        | None ->
            if last then fold_pattern_naive ctx st p (fun _ n -> n + 1) 0
            else
              fold_pattern_naive ctx st p
                (fun st' n -> n + count st' (i + 1) rest)
                0)
  in
  count init 0 patterns

(* ------------------------------------------------------------------ *)
(* Shortest paths                                                     *)
(* ------------------------------------------------------------------ *)

(** [shortest_paths ctx ~all pattern] evaluates
    [shortestPath((a)-[:T*]->(b))] (and [allShortestPaths]): a BFS over
    relationships satisfying the single variable-length step, between
    two *bound* endpoints.  Returns a {!Value.Path} (or a list of paths
    under [~all:true]); [Null] (or the empty list) when no path exists.
    The zero-length path is a valid answer when the endpoints coincide
    and the range admits length 0. *)
let shortest_paths (ctx : Ctx.t) ~all (p : pattern) : Value.t =
  Graph.ensure_csr ctx.graph;
  let rp, end_np =
    match p.pat_steps with
    | [ (rp, np) ] when rp.rp_range <> None -> (rp, np)
    | _ ->
        Ctx.error
          "shortestPath requires a single variable-length relationship \
           pattern, e.g. shortestPath((a)-[:T*]->(b))"
  in
  let endpoint (np : node_pat) =
    match np.np_var with
    | Some v -> (
        match Record.find_opt ctx.row v with
        | Some (Value.Node id) -> Some id
        | Some Value.Null -> None
        | Some v ->
            Ctx.error "shortestPath endpoint is not a node: %s"
              (Value.to_string v)
        | None ->
            Ctx.error
              "shortestPath endpoints must be bound (variable `%s` is not)" v)
    | None -> Ctx.error "shortestPath endpoints must be named and bound"
  in
  match (endpoint p.pat_start, endpoint end_np) with
  | None, _ | _, None -> Value.Null (* null endpoint: no path *)
  | Some src, Some tgt -> (
      let lo, hi =
        match rp.rp_range with
        | Some (lo, hi) -> (Option.value ~default:1 lo, hi)
        | None ->
            (* the caller dispatches here only under [rp_range <> None];
               fail structurally rather than aborting the process *)
            Ctx.internal
              "shortestPath: relationship pattern lost its length range"
      in
      (* BFS storing per-node predecessor lists so that all shortest
         walks can be reconstructed.  On the compact backend the whole
         search runs in CSR dense-index space: visited levels and
         predecessor lists are flat arrays over the node count, the
         frontier queue holds dense indices, and the adjacency fold is
         the record-free {!fold_adjacent_csr_idx} — a relationship
         record is only fetched when the pattern carries property
         predicates.  Discovery order (id-sorted slices, FIFO frontier,
         same predecessor cons order) matches the map path exactly, so
         both backends enumerate identical walk lists. *)
      let rel_walks =
        match Graph.csr_view ctx.graph with
        | Some c ->
            let open Graph.Csr in
            let src_i = node_idx c src and tgt_i = node_idx c tgt in
            let found_depth = ref None in
            let level = Array.make (c.node_count + 1) (-1) in
            let preds : (int * int) list array =
              (* (dense rel index, dense predecessor index) *)
              Array.make (c.node_count + 1) []
            in
            if src_i >= 0 then begin
              let has_props = rp.rp_props <> [] in
              (* type symbols and direction resolved once, not per
                 frontier node *)
              let tymatch = compile_tymatch rp in
              let dir = rp.rp_dir in
              level.(src_i) <- 0;
              let queue = Queue.create () in
              Queue.add src_i queue;
              let expand_from depth =
                (match !found_depth with Some d -> depth < d | None -> true)
                && match hi with Some h -> depth < h | None -> true
              in
              while not (Queue.is_empty queue) do
                let i = Queue.pop queue in
                let depth = level.(i) in
                if expand_from depth then
                  fold_adjacent_csr_tyd c ~tymatch ~dir
                    c.node_recs.(i).Graph.n_id
                    (fun j far () ->
                      (* the type filter already ran inside the fold *)
                      if
                        (not has_props)
                        || rel_satisfies ctx ctx.row rp c.rel_recs.(j)
                      then begin
                        let fi = node_idx c far in
                        (if level.(fi) < 0 then begin
                           level.(fi) <- depth + 1;
                           preds.(fi) <- [ (j, i) ];
                           Queue.add fi queue
                         end
                         else if level.(fi) = depth + 1 then
                           preds.(fi) <- (j, i) :: preds.(fi));
                        if
                          fi = tgt_i
                          && depth + 1 >= lo
                          && !found_depth = None
                        then found_depth := Some (depth + 1)
                      end)
                    ()
              done
            end;
            let rec walks_to i depth suffix : Value.rel_id list list =
              if depth = 0 then if i = src_i then [ suffix ] else []
              else
                List.concat_map
                  (fun (j, prev) ->
                    if level.(prev) = depth - 1 then
                      walks_to prev (depth - 1) (c.rel_id.(j) :: suffix)
                    else [])
                  preds.(i)
            in
            if src = tgt && lo = 0 then [ [] ]
            else (
              match !found_depth with
              | Some depth when tgt_i >= 0 -> walks_to tgt_i depth []
              | _ -> [])
        | None ->
            let preds : (int, (Graph.rel * int) list) Hashtbl.t =
              Hashtbl.create 16
            in
            let level : (int, int) Hashtbl.t = Hashtbl.create 16 in
            Hashtbl.replace level src 0;
            let queue = Queue.create () in
            Queue.add src queue;
            let found_depth = ref None in
            let expand_from depth =
              (match !found_depth with Some d -> depth < d | None -> true)
              && match hi with Some h -> depth < h | None -> true
            in
            while not (Queue.is_empty queue) do
              let node = Queue.pop queue in
              let depth = Hashtbl.find level node in
              if expand_from depth then
                fold_adjacent ctx.graph node rp ~reversed:false
                  (fun (r : Graph.rel) far () ->
                    if rel_satisfies ctx ctx.row rp r then begin
                      (match Hashtbl.find_opt level far with
                      | None ->
                          Hashtbl.replace level far (depth + 1);
                          Hashtbl.replace preds far [ (r, node) ];
                          Queue.add far queue
                      | Some d when d = depth + 1 ->
                          Hashtbl.replace preds far
                            ((r, node) :: Hashtbl.find preds far)
                      | Some _ -> ());
                      if far = tgt && depth + 1 >= lo && !found_depth = None
                      then found_depth := Some (depth + 1)
                    end)
                  ()
            done;
            (* all shortest walks as forward relationship-id lists.  The
               walk is threaded backwards from the target as an
               already-forward [suffix] (each step conses the
               relationship traversed *after* it), so no per-hop list
               copy: the old [walk @ [r_id]] append made reconstruction
               quadratic in the walk length. *)
            let rec walks_to node depth suffix : Value.rel_id list list =
              if depth = 0 then if node = src then [ suffix ] else []
              else
                List.concat_map
                  (fun ((r : Graph.rel), prev) ->
                    if Hashtbl.find_opt level prev = Some (depth - 1) then
                      walks_to prev (depth - 1) (r.Graph.r_id :: suffix)
                    else [])
                  (match Hashtbl.find_opt preds node with
                  | Some l -> l
                  | None -> [])
            in
            if src = tgt && lo = 0 then
              (* the zero-length path is trivially shortest *)
              [ [] ]
            else (
              match !found_depth with
              | Some depth -> walks_to tgt depth []
              | None -> [])
      in
      let to_path rels =
        let nodes_rev =
          List.fold_left
            (fun acc rid ->
              let r = Graph.rel_exn ctx.graph rid in
              let last = List.hd acc in
              let next = if r.Graph.src = last then r.Graph.tgt else r.Graph.src in
              next :: acc)
            [ src ] rels
        in
        { Value.path_nodes = List.rev nodes_rev; path_rels = rels }
      in
      let paths = List.map to_path rel_walks in
      if all then Value.List (List.map (fun p -> Value.Path p) paths)
      else
        match paths with [] -> Value.Null | p :: _ -> Value.Path p)
