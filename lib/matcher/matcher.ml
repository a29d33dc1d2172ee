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

(** [node_check ctx np] is the label and property test of [np] as a
    [row -> id -> bool] function.  Missing nodes never match. *)
let node_check (ctx : Ctx.t) (np : node_pat) :
    Record.t -> Value.node_id -> bool =
 fun row id ->
  match Graph.node ctx.graph id with
  | None -> false
  | Some n ->
      List.for_all (fun l -> Sset.mem l n.Graph.labels) np.np_labels
      && List.for_all
           (fun (k, e) ->
             let want = eval_in ctx row e in
             Value.equal_tri (Props.get n.Graph.n_props k) want = Tri.True)
           np.np_props

(** [rel_satisfies ctx rp row r]: [r] carries one of [rp]'s types
    (any, when none is given) and its property predicates hold under
    [row]. *)
let rel_satisfies (ctx : Ctx.t) (rp : rel_pat) row (r : Graph.rel) =
  (match rp.rp_types with
  | [] -> true
  | types -> List.mem r.Graph.r_type types)
  && List.for_all
       (fun (k, e) ->
         let want = eval_in ctx row e in
         Value.equal_tri (Props.get r.Graph.r_props k) want = Tri.True)
       rp.rp_props

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

(** Folds [f] over the nodes matching a node pattern, each with [st]
    extended by the node's binding, in id order.  Candidates are the
    binding when the variable is already bound, otherwise the label
    index of the pattern's first label, otherwise every node — folded
    straight off the index, never copied into a list. *)
let fold_node_matches (ctx : Ctx.t) st (np : node_pat)
    (f : state -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let check = node_check ctx np in
  let visit id acc =
    if not (check st.row id) then acc
    else
      match bind_var st np.np_var (Value.Node id) with
      | Some st -> f st id acc
      | None -> acc
  in
  match node_candidates st np with
  | Some ids -> List.fold_left (fun acc id -> visit id acc) acc ids
  | None -> (
      match np.np_labels with
      | [] -> Graph.fold_node_ids visit ctx.graph acc
      | label :: _ -> Graph.fold_label visit ctx.graph label acc)

let flip = function Out -> In | In -> Out | Undirected -> Undirected

(* Hop enumeration folds [f] over the relationships at a node
   compatible with the direction of the hop's relationship pattern
   (flipped for hops traversed right-to-left), pairing each with the
   node at the far end, in relationship-id order.  A typed pattern
   folds only the buckets of its listed types, merged in id order (a
   single type is its bucket, unallocated), never touching
   non-matching types.  Folding (rather than materialising a neighbour
   list) keeps the per-hop allocation at zero; hop enumeration is the
   innermost loop of every MATCH and MERGE. *)

let hop_ids g src_id types typed all =
  match types with
  | [] -> all g src_id
  | [ ty ] -> typed g src_id ty
  | tys -> List.fold_left (fun s ty -> Ids.union (typed g src_id ty) s) Ids.empty tys

let fold_adjacent_maps (g : Graph.t) src_id (rp : rel_pat) ~reversed
    (f : Value.rel_id -> Graph.rel -> Value.node_id -> 'a -> 'a) (acc : 'a) :
    'a =
  let dir = if reversed then flip rp.rp_dir else rp.rp_dir in
  match dir with
  | Out ->
      Ids.fold
        (fun rid acc ->
          let r = Graph.rel_exn g rid in
          f rid r r.Graph.tgt acc)
        (hop_ids g src_id rp.rp_types Graph.out_rel_ids_typed Graph.out_rel_ids)
        acc
  | In ->
      Ids.fold
        (fun rid acc ->
          let r = Graph.rel_exn g rid in
          f rid r r.Graph.src acc)
        (hop_ids g src_id rp.rp_types Graph.in_rel_ids_typed Graph.in_rel_ids)
        acc
  | Undirected ->
      (* the incident set is a union of the two adjacency sets, so a
         self-loop appears once without any post-hoc deduplication *)
      Ids.fold
        (fun rid acc ->
          let r = Graph.rel_exn g rid in
          let far =
            if r.Graph.src = src_id then r.Graph.tgt else r.Graph.src
          in
          f rid r far acc)
        (Ids.union
           (hop_ids g src_id rp.rp_types Graph.out_rel_ids_typed Graph.out_rel_ids)
           (hop_ids g src_id rp.rp_types Graph.in_rel_ids_typed Graph.in_rel_ids))
        acc

(** A hop's adjacency enumeration, compiled once per pattern
    invocation.  [f] receives the relationship's id alongside its
    record.  The polymorphic field lets one compiled value serve any
    accumulator type. *)
type adj = {
  adj :
    'a.
    Value.node_id ->
    (Value.rel_id -> Graph.rel -> Value.node_id -> 'a -> 'a) ->
    'a ->
    'a;
}

(** [compile_adjacent g rp ~reversed] compiles a hop's enumeration. *)
let compile_adjacent (g : Graph.t) (rp : rel_pat) ~reversed : adj =
  { adj = (fun src f acc -> fold_adjacent_maps g src rp ~reversed f acc) }

(** Folds over the matches of a single (non-variable-length)
    relationship step from [src_id]: states extended with the
    relationship binding, the far node id, and the traversed
    relationship, in relationship-id order.  The binding site, the
    relationship check and the adjacency enumeration come compiled once
    per pattern invocation. *)
let fold_single_rel ~bind ~check ~adj st src_id
    (f : state -> Value.node_id -> Graph.rel -> 'a -> 'a) (acc : 'a) : 'a =
  adj.adj src_id
    (fun rid r far acc ->
      if not (rel_available st rid) then acc
      else if not (check st.row r) then acc
      else
        match bind st.row (Value.Rel rid) with
        | None -> acc
        | Some row -> (
            (* one state allocation for the used-set and row updates
               together (the split use_rel-then-bind form allocated two) *)
            match st.mode with
            | Iso -> f { st with used = Iset.add rid st.used; row } far r acc
            | Homo -> f (if row == st.row then st else { st with row }) far r acc))
    acc

(** Matches a variable-length step: all edge-distinct walks from
    [src_id] whose length lies within the range, enumerated through the
    hop's compiled adjacency [adj] and relationship [check].  Each walk
    comes with [st] extended by its edges (under [Iso]), its far node
    and its relationships in the pattern's left-to-right order — under
    [~reversed] the walk is explored from the step's right endpoint.
    Binding the relationship variable is the caller's. *)
let match_varlength ~reversed ~adj ~check st src_id lo hi :
    (state * Value.node_id * Graph.rel list) list =
  let results = ref [] in
  (* [walk] keeps the walk's own edges distinct — under both matching
     regimes, so that unbounded ranges stay finite *)
  let rec explore st walk node rels_rev len =
    if len >= lo then begin
      let rels = if reversed then rels_rev else List.rev rels_rev in
      results := (st, node, rels) :: !results
    end;
    if match hi with Some h -> len < h | None -> true then
      adj.adj node
        (fun rid r far () ->
          if
            (not (Iset.mem rid walk))
            && rel_available st rid
            && check st.row r
          then
            explore (use_rel st rid) (Iset.add rid walk) far (r :: rels_rev)
              (len + 1))
        ()
  in
  explore st Iset.empty src_id [] 0;
  List.rev !results

let rel_list_value rels =
  Value.List (List.map (fun (r : Graph.rel) -> Value.Rel r.Graph.r_id) rels)

(** Folds [emit] over the matches of one whole path pattern left-to-right
    from state [st] — the naive enumeration: anchor on [pat_start], walk
    the steps in syntactic order.  [emit] is called once per embedding,
    in traversal order. *)
let fold_pattern_naive (ctx : Ctx.t) st (p : pattern)
    (emit : state -> 'a -> 'a) (acc0 : 'a) : 'a =
  (* the path value is only assembled when the pattern is named; an
     anonymous pattern skips the per-embedding list building entirely. *)
  let named = p.pat_var <> None in
  (* far-node checks, binding sites and relationship predicates compiled
     once per pattern, not once per embedding *)
  let compiled_steps =
    List.map
      (fun (rp, np) ->
        ( rp,
          node_check ctx np,
          compile_row_binder st.row np.np_var,
          compile_row_binder st.row rp.rp_var,
          rel_satisfies ctx rp,
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
            fold_single_rel ~bind:rbind ~check:rcheck ~adj st node_id
              (fun st far r acc ->
                far_step st far (if named then [ r ] else []) acc)
              acc
        | Some (lo, hi) ->
            let lo = Option.value ~default:1 lo in
            List.fold_left
              (fun acc (st, far, rels) ->
                match rbind st.row (rel_list_value rels) with
                | None -> acc
                | Some row ->
                    far_step
                      (if row == st.row then st else { st with row })
                      far rels acc)
              acc
              (match_varlength ~reversed:false ~adj ~check:rcheck st node_id
                 lo hi))
  in
  fold_node_matches ctx st p.pat_start
    (fun st start_id acc ->
      steps st start_id
        (if named then [ start_id ] else [])
        [] compiled_steps acc)
    acc0

(* ------------------------------------------------------------------ *)
(* Planned execution                                                  *)
(* ------------------------------------------------------------------ *)

(** Folds [f] over the candidate nodes of a planned anchor, in id
    order.  Bound variables and index lookups still pass through the
    anchor's {!node_check}, so an index bucket may safely
    over-approximate (it is re-filtered). *)
let fold_anchor (ctx : Ctx.t) st (plan : Plan.t)
    (f : Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let np = plan.Plan.p_anchor in
  let of_list ids = List.fold_left (fun acc id -> f id acc) acc ids in
  match plan.Plan.p_anchor_kind with
  | Plan.Anchor_bound -> (
      match node_candidates st np with Some ids -> of_list ids | None -> acc)
  | Plan.Anchor_prop_index { pi_label; pi_key; pi_value } -> (
      let v = eval_in ctx st.row pi_value in
      match Graph.nodes_with_prop ctx.graph ~label:pi_label ~key:pi_key v with
      | Some ids -> of_list ids
      | None -> Graph.fold_label f ctx.graph pi_label acc)
  | Plan.Anchor_label label -> Graph.fold_label f ctx.graph label acc
  | Plan.Anchor_scan -> Graph.fold_node_ids f ctx.graph acc

(** What the planned fold does with each embedding: hand its state to
    the rest of the pattern tuple, hand only its row to the consumer
    (the last pattern — no used-set union, no state), or just tick the
    accumulator (the last pattern under a fused count — no row
    either). *)
type 'a leaf =
  | Emit of (state -> 'a -> 'a)
  | Emit_row of (Record.t -> 'a -> 'a)
  | Count of ('a -> 'a)

(** A compiled binding site: [Write i] is the variable's first
    occurrence, its slot [i] absent in the invocation row; [Compare i]
    tests the value against slot [i], set in the invocation row or by
    an earlier site of the pattern; [Unbound] is an anonymous variable
    (or a write nothing will read). *)
type site = Unbound | Write of int | Compare of int

let site_bind cells site (v : Value.t) =
  match site with
  | Unbound -> true
  | Write i ->
      cells.(i) <- v;
      true
  | Compare i -> Value.equal_strict cells.(i) v

(* the id forms skip building the value for an anonymous site *)
let site_bind_node cells site id =
  site == Unbound || site_bind cells site (Value.Node id)

let site_bind_rel cells site id =
  site == Unbound || site_bind cells site (Value.Rel id)

(** The pattern's variables in the order the sites bind them: anchor,
    then each hop's relationship and far node, then the path name. *)
let site_vars (plan : Plan.t) (p : pattern) =
  (plan.Plan.p_anchor.np_var
  :: List.concat_map
       (fun (h : Plan.hop) -> [ h.Plan.h_rp.rp_var; h.Plan.h_far.np_var ])
       plan.Plan.p_hops)
  @ [ p.pat_var ]

(** [fold_pattern_planned ctx st plan p leaf acc0] matches one whole
    path pattern following a {!Plan.t}: enumerate the anchor position
    first, then each hop from its already-bound side.  Rows are built
    only at the leaf: the recursion threads raw ids through
    per-invocation scratch — node ids by position, relationship ids by
    depth, a variable-length hop's walk by depth — and writes bound
    values into one scratch cell array, copied once per emitted row.

    - Sites are compiled per invocation (see {!site}); a variable
      outside the row's layout (MERGE rows are not seeded) extends the
      layout once, here, before enumeration starts.
    - Property expressions evaluate against the invocation row:
      {!Plan.make} plans only patterns whose every free variable is
      already bound there.
    - Under [Iso], within-pattern relationship distinctness is a linear
      scan of the scratch ids (walk edges included); the used-set union
      happens once per emitted state.
    - A variable-length hop is expanded by {!match_varlength} from a
      state whose used set holds this branch's relationships so far.
    - A named pattern assembles its path at the leaf, nodes in position
      order and relationships in step order.

    Check order per relationship: availability, relationship predicate,
    relationship site, far-node check, far-node site. *)
let fold_pattern_planned (ctx : Ctx.t) st (plan : Plan.t)
    (p : pattern) (leaf : 'a leaf) (acc0 : 'a) : 'a =
  let row0 = st.row in
  let tab0, cells0 = Record.slots_view row0 in
  let vars = site_vars plan p in
  let tab =
    List.fold_left
      (fun tab var ->
        match var with
        | Some name when Slots.index tab name < 0 -> Slots.extend tab name
        | _ -> tab)
      tab0 vars
  in
  let cells = Array.make (Slots.width tab) Slots.absent in
  Array.blit cells0 0 cells 0 (Array.length cells0);
  (* sites in binding order; in a counting leaf a write only a later
     compare reads is kept, every other write is dead *)
  let sites =
    List.fold_left
      (fun (written, acc) var ->
        match var with
        | None -> (written, Unbound :: acc)
        | Some name ->
            let i = Slots.index tab name in
            if cells.(i) != Slots.absent || List.mem i written then
              (written, Compare i :: acc)
            else (i :: written, Write i :: acc))
      ([], []) vars
    |> snd |> List.rev
  in
  let sites =
    match leaf with
    | Count _ ->
        List.map
          (function
            | Write i when not (List.mem (Compare i) sites) -> Unbound
            | s -> s)
          sites
    | Emit _ | Emit_row _ -> sites
  in
  let no_writes = List.for_all (function Write _ -> false | _ -> true) sites in
  let sites = Array.of_list sites in
  let hops_arr = Array.of_list plan.Plan.p_hops in
  let n_hops = Array.length hops_arr in
  let anchor_site = sites.(0) and path_site = sites.((2 * n_hops) + 1) in
  let compiled =
    Array.mapi
      (fun d (h : Plan.hop) ->
        ( h,
          node_check ctx h.Plan.h_far,
          rel_satisfies ctx h.Plan.h_rp,
          compile_adjacent ctx.graph h.Plan.h_rp
            ~reversed:h.Plan.h_reversed,
          sites.((2 * d) + 1),
          sites.((2 * d) + 2) ))
      hops_arr
  in
  let iso = st.mode = Iso in
  (* the current branch by hop depth; DFS writes depth [d] before
     descending, so entries below the current depth always hold this
     branch's ancestors.  A variable-length hop leaves [rel_ids] at -1
     and records its walk instead. *)
  let pos_ids = Array.make plan.Plan.p_positions 0 in
  let rel_ids = Array.make n_hops (-1) in
  let walks = Array.make n_hops [] in
  let fresh d rid =
    (not iso)
    || (not (Iset.mem rid st.used))
       &&
       let rec scan k =
         k >= d
         || rel_ids.(k) <> rid
            && (walks.(k) == [] || not (List.mem rid walks.(k)))
            && scan (k + 1)
       in
       scan 0
  in
  let used_upto d =
    if not iso then st.used
    else
      let u = ref st.used in
      for k = 0 to d - 1 do
        if rel_ids.(k) >= 0 then u := Iset.add rel_ids.(k) !u;
        List.iter (fun rid -> u := Iset.add rid !u) walks.(k)
      done;
      !u
  in
  let path_value () =
    let step_rels = Array.make n_hops [] in
    Array.iteri
      (fun d (h : Plan.hop) ->
        step_rels.(h.Plan.h_step) <-
          (if rel_ids.(d) >= 0 then [ rel_ids.(d) ] else walks.(d)))
      hops_arr;
    Value.Path
      {
        Value.path_nodes = Array.to_list pos_ids;
        path_rels = List.concat (Array.to_list step_rels);
      }
  in
  let leaf_row () =
    if no_writes then row0 else Record.of_slots tab (Array.copy cells)
  in
  let at_leaf acc =
    if path_site != Unbound && not (site_bind cells path_site (path_value ()))
    then acc
    else
      match leaf with
      | Count f -> f acc
      | Emit_row f -> f (leaf_row ()) acc
      | Emit f ->
          f { row = leaf_row (); used = used_upto n_hops; mode = st.mode } acc
  in
  let rec hops d acc =
    if d >= n_hops then at_leaf acc
    else
      let h, check, rcheck, adj, rel_site, far_site = compiled.(d) in
      let far_step far acc =
        if not (check row0 far) then acc
        else if not (site_bind_node cells far_site far) then acc
        else begin
          pos_ids.(h.Plan.h_far_pos) <- far;
          hops (d + 1) acc
        end
      in
      let src_id = pos_ids.(h.Plan.h_src_pos) in
      match h.Plan.h_rp.rp_range with
      | None ->
          adj.adj src_id
            (fun rid r far acc ->
              if not (fresh d rid) then acc
              else if not (rcheck row0 r) then acc
              else if not (site_bind_rel cells rel_site rid) then acc
              else begin
                rel_ids.(d) <- rid;
                far_step far acc
              end)
            acc
      | Some (lo, hi) ->
          let from = { row = row0; used = used_upto d; mode = st.mode } in
          List.fold_left
            (fun acc (_, far, rels) ->
              if
                rel_site != Unbound
                && not (site_bind cells rel_site (rel_list_value rels))
              then acc
              else begin
                walks.(d) <- List.map (fun (r : Graph.rel) -> r.Graph.r_id) rels;
                far_step far acc
              end)
            acc
            (match_varlength ~reversed:h.Plan.h_reversed ~adj ~check:rcheck
               from src_id
               (Option.value ~default:1 lo)
               hi)
  in
  let anchor_check = node_check ctx plan.Plan.p_anchor in
  let anchor_pos = plan.Plan.p_anchor_pos in
  fold_anchor ctx st plan
    (fun id acc ->
      if not (anchor_check row0 id) then acc
      else if not (site_bind_node cells anchor_site id) then acc
      else begin
        pos_ids.(anchor_pos) <- id;
        hops 0 acc
      end)
    acc0

(** What a pattern-tuple fold hands its consumer per embedding: the
    result row, or only a tick — the counting leaf for a consumer that
    reads no column. *)
type 'a sink = Rows of (Record.t -> 'a -> 'a) | Tally of ('a -> 'a)

(** [fold_patterns ?mode ?planner ?plans ctx patterns sink acc] folds
    [sink] over every extension of the context row that embeds every
    pattern; under the default [Iso] mode relationship isomorphism is
    enforced across the whole pattern tuple.  [planner] enables
    cost-guided anchor selection and hop orientation (see {!Plan}); the
    embeddings are the same either way, possibly in a different order.

    [plans] supplies one precomputed plan option per pattern (as built
    by {!Plan.make} against a representative row): plan selection
    depends only on which variables are bound — uniform across the rows
    of one driving table — and on graph statistics, so hoisting the
    planning out of the per-row loop preserves the embeddings while
    eliminating the per-row planning cost.  A [None] entry means naive
    enumeration for that pattern (what per-row planning would also have
    chosen); a list shorter than [patterns] leaves the remaining
    patterns on per-row planning.

    Each embedding of a pattern recurses straight into the remaining
    patterns, and the final pattern feeds the sink directly — through
    the row-only leaf when planned, which skips the per-embedding state
    bookkeeping nothing will read — so no intermediate list is ever
    built. *)
let fold_patterns ?(mode = Iso) ?(planner = false) ?plans (ctx : Ctx.t)
    (patterns : pattern list) (sink : 'a sink) (acc : 'a) : 'a =
  let init = { row = ctx.row; used = Iset.empty; mode } in
  let hints = Option.value ~default:[] plans in
  let plan_with hint st p =
    match hint with
    | Some hint -> hint (* [Some None] forces naive enumeration *)
    | None -> if planner then Plan.make ctx st.row p else None
  in
  let rec go st i rest acc =
    match rest with
    | [] -> (
        (* reached only by an empty tuple: its one embedding is the
           context row itself *)
        match sink with Rows f -> f st.row acc | Tally f -> f acc)
    | [ p ] -> (
        match (plan_with (List.nth_opt hints i) st p, sink) with
        | Some plan, Rows f -> fold_pattern_planned ctx st plan p (Emit_row f) acc
        | Some plan, Tally f -> fold_pattern_planned ctx st plan p (Count f) acc
        | None, Rows f -> fold_pattern_naive ctx st p (fun st acc -> f st.row acc) acc
        | None, Tally f -> fold_pattern_naive ctx st p (fun _ acc -> f acc) acc)
    | p :: rest -> (
        let emit st acc = go st (i + 1) rest acc in
        match plan_with (List.nth_opt hints i) st p with
        | Some plan -> fold_pattern_planned ctx st plan p (Emit emit) acc
        | None -> fold_pattern_naive ctx st p emit acc)
  in
  go init 0 patterns acc

(** [match_patterns ?mode ?planner ?plans ctx patterns] is the list of
    embeddings {!fold_patterns} enumerates, in its order. *)
let match_patterns ?mode ?planner ?plans (ctx : Ctx.t)
    (patterns : pattern list) : Record.t list =
  List.rev
    (fold_patterns ?mode ?planner ?plans ctx patterns
       (Rows (fun row acc -> row :: acc))
       [])

(* ------------------------------------------------------------------ *)
(* Shortest paths                                                     *)
(* ------------------------------------------------------------------ *)

(** [shortest_paths ctx ~all pattern] evaluates
    [shortestPath((a)-[:T*]->(b))] (and [allShortestPaths]) between two
    *bound* endpoints, over the relationships satisfying the single
    variable-length step.  Returns a {!Value.Path} (or a list of paths
    under [~all:true]); [Null] (or the empty list) when no path exists.

    A path exists iff [lo <= d <= hi], where [d] is the shortest
    distance: the zero-length path when the endpoints coincide and
    [lo = 0], none when they coincide and [lo > 0].

    The distance comes from a level-synchronous bidirectional BFS that
    always expands the smaller frontier by one whole level: forward from
    the source along the step's direction, backward from the target
    against it (both ways for an undirected step).  The first level
    whose new nodes meet the other side's frontier fixes [d]; nothing
    beyond it is explored.  The walks are then read off the two distance
    maps by a depth-first walk from the source in relationship-id order:
    [shortestPath] returns the first — the shortest walk whose sequence
    of relationship ids is lexicographically least — and
    [allShortestPaths] all of them, in that order.  Both maps are
    persistent, so a search allocates only short-lived blocks. *)
let shortest_paths (ctx : Ctx.t) ~all (p : pattern) : Value.t =
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
      let usable r = rel_satisfies ctx rp ctx.row r in
      (* one level of one side: the unvisited far ends of the frontier's
         usable relationships, recorded at [depth + 1] *)
      let expand ~reversed dist frontier depth =
        List.fold_left
          (fun acc node ->
            fold_adjacent_maps ctx.graph node rp ~reversed
              (fun _ r far ((dist, next, n) as acc) ->
                if usable r && not (Imap.mem far dist) then
                  (Imap.add far (depth + 1) dist, far :: next, n + 1)
                else acc)
              acc)
          (dist, [], 0) frontier
      in
      let within d = match hi with Some h -> d <= h | None -> true in
      (* Invariant: no node is both within [df] of the source and within
         [db] of the target, so the distance exceeds [df + db].  When a
         new level meets the other side, every meeting node sits on that
         side's frontier and the distance is exactly one more. *)
      let rec search (dist_f, ff, nf, df) (dist_b, fb, nb, db) =
        if nf = 0 || nb = 0 || not (within (df + db + 1)) then None
        else if nf <= nb then
          let dist_f, ff, nf = expand ~reversed:false dist_f ff df in
          let fwd = (dist_f, ff, nf, df + 1) and bwd = (dist_b, fb, nb, db) in
          if List.exists (fun v -> Imap.mem v dist_b) ff then Some (fwd, bwd)
          else search fwd bwd
        else
          let dist_b, fb, nb = expand ~reversed:true dist_b fb db in
          let fwd = (dist_f, ff, nf, df) and bwd = (dist_b, fb, nb, db + 1) in
          if List.exists (fun v -> Imap.mem v dist_f) fb then Some (fwd, bwd)
          else search fwd bwd
      in
      let fwd = (Imap.singleton src 0, [ src ], 1, 0)
      and bwd = (Imap.singleton tgt 0, [ tgt ], 1, 0) in
      let met = if src = tgt then Some (fwd, bwd) else search fwd bwd in
      let paths =
        match met with
        | None -> []
        | Some ((dist_f, _, _, kf), (dist_b, _, _, kb)) ->
            let d = kf + kb in
            if d < lo then []
            else
              (* position [i] of a shortest walk holds a node at distance
                 [i] from the source, which before the meeting level must
                 also still reach it ([dead] remembers those that do not)
                 and from it on sits at distance [d - i] from the target *)
              let on_walk i v =
                if i < kf then Imap.find_opt v dist_f = Some i
                else Imap.find_opt v dist_b = Some (d - i)
              in
              let dead = ref Iset.empty and found = ref [] in
              let rec walk i v nodes_rev rels_rev =
                if i = d then begin
                  found :=
                    {
                      Value.path_nodes = List.rev nodes_rev;
                      path_rels = List.rev rels_rev;
                    }
                    :: !found;
                  true
                end
                else if Iset.mem v !dead then false
                else
                  let reached =
                    fold_adjacent_maps ctx.graph v rp ~reversed:false
                      (fun rid r far reached ->
                        if reached && not all then true
                        else if on_walk (i + 1) far && usable r then
                          walk (i + 1) far (far :: nodes_rev) (rid :: rels_rev)
                          || reached
                        else reached)
                      false
                  in
                  if not reached then dead := Iset.add v !dead;
                  reached
              in
              ignore (walk 0 src [ src ] []);
              List.rev !found
      in
      if all then Value.List (List.map (fun p -> Value.Path p) paths)
      else match paths with [] -> Value.Null | p :: _ -> Value.Path p)
