(** Random generation of property graphs and Cypher statements.

    The generator is deliberately *closed over a small vocabulary*
    (labels A/B/C, relationship types T/U, integer keys k/x/id, string
    key s) so that random statements actually collide with random
    graphs: a MATCH stands a real chance of producing rows, a MERGE of
    matching something it did not just create, a SET of racing with
    another record.  A generator over fresh names would exercise almost
    nothing.

    Statements are generated against a *variable environment* so that
    every produced AST is scope-correct: SET/REMOVE/DELETE only target
    bound variables, WITH narrows the environment, FOREACH binds its
    element variable locally.  Type discipline is kept loose on purpose
    — properties are integers (and the occasional string), arithmetic
    stays on integer-valued keys — so that runs mostly exercise update
    semantics rather than dying in the expression evaluator.

    All randomness flows through {!Rng}; a case seed fully determines
    the generated {!case}. *)

open Cypher_ast.Ast
module Graph = Cypher_graph.Graph
module Props = Cypher_graph.Props
module Value = Cypher_graph.Value

let labels = [| "A"; "B"; "C" |]
let rel_types = [| "T"; "U" |]
let int_keys = [| "k"; "x"; "id" |]

(* ------------------------------------------------------------------ *)
(* Graphs                                                             *)
(* ------------------------------------------------------------------ *)

let gen_node_props rng =
  let p = [] in
  let p = if Rng.chance rng 1 2 then ("k", Value.Int (Rng.range rng 0 3)) :: p else p in
  let p = if Rng.chance rng 1 3 then ("id", Value.Int (Rng.range rng 0 3)) :: p else p in
  let p =
    if Rng.chance rng 1 4 then ("s", Value.String (Rng.pick rng [| "a"; "b" |])) :: p
    else p
  in
  Props.of_list p

(** A small random graph: up to 6 nodes over labels A/B/C, up to 2n
    relationships of types T/U, integer properties drawn from a tiny
    value pool.  Half of the time the (A, id) property index is
    registered — before node creation (exercising incremental index
    maintenance) or after (exercising the build-from-existing path). *)
let graph rng =
  let n = Rng.range rng 0 6 in
  (* 0 = register the index first, 1 = register it last, 2 = no index *)
  let index_when = Rng.range rng 0 2 in
  let g = Graph.empty in
  let g = if index_when = 0 then Graph.add_prop_index ~label:"A" ~key:"id" g else g in
  let ids = ref [] in
  let g = ref g in
  for _ = 1 to n do
    let labs = List.filter (fun _ -> Rng.chance rng 1 2) [ "A"; "B"; "C" ] in
    let id, g' = Graph.create_node ~labels:labs ~props:(gen_node_props rng) !g in
    ids := id :: !ids;
    g := g'
  done;
  let ids = Array.of_list (List.rev !ids) in
  if Array.length ids > 0 then begin
    let m = Rng.range rng 0 (2 * n) in
    for _ = 1 to m do
      let src = Rng.pick rng ids and tgt = Rng.pick rng ids in
      let props =
        if Rng.chance rng 1 3 then Props.of_list [ ("k", Value.Int (Rng.range rng 0 3)) ]
        else Props.empty
      in
      let _, g' =
        Graph.create_rel ~src ~tgt ~r_type:(Rng.pick rng rel_types) ~props !g
      in
      g := g'
    done
  end;
  if index_when = 1 then Graph.add_prop_index ~label:"A" ~key:"id" !g else !g

(* ------------------------------------------------------------------ *)
(* Variable environments                                              *)
(* ------------------------------------------------------------------ *)

type env = {
  mutable nodes : string list;  (** bound node variables, oldest first *)
  mutable rels : string list;  (** bound relationship variables *)
  mutable scalars : string list;  (** bound scalar (integer) variables *)
  mutable paths : string list;  (** bound path variables *)
  mutable next : int;  (** fresh-name counter *)
}

let new_env () = { nodes = []; rels = []; scalars = []; paths = []; next = 0 }

let fresh env prefix =
  let i = env.next in
  env.next <- i + 1;
  Printf.sprintf "%s%d" prefix i

let fresh_node env =
  let v = fresh env "n" in
  env.nodes <- env.nodes @ [ v ];
  v

let fresh_rel env =
  let v = fresh env "r" in
  env.rels <- env.rels @ [ v ];
  v

let fresh_scalar env =
  let v = fresh env "u" in
  env.scalars <- env.scalars @ [ v ];
  v

let fresh_path env =
  let v = fresh env "p" in
  env.paths <- env.paths @ [ v ];
  v

let all_vars env = env.nodes @ env.rels @ env.scalars @ env.paths

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let small_int rng = Lit (L_int (Rng.range rng 0 4))
let a_label rng = Rng.pick rng labels
let an_int_key rng = Rng.pick rng int_keys

(** A scalar (integer-valued) expression readable under [ctx_nodes] and
    [ctx_scalars] — snapshots of the environment taken *before* the
    clause under construction, so that e.g. a CREATE's property
    expressions never read variables the same clause is introducing. *)
let value_expr rng ~ctx_nodes ~ctx_scalars =
  let prop_of v = Prop (Var v, an_int_key rng) in
  match Rng.range rng 0 5 with
  | 0 | 1 -> small_int rng
  | 2 when ctx_scalars <> [] -> Var (Rng.pick_list rng ctx_scalars)
  | (2 | 3 | 4) when ctx_nodes <> [] ->
      let p = prop_of (Rng.pick_list rng ctx_nodes) in
      if Rng.chance rng 1 3 then Bin (Add, p, small_int rng) else p
  | _ -> small_int rng

(** A WHERE predicate over the bound entity variables. *)
let predicate rng env =
  let entity_prop () =
    match (env.nodes, env.rels) with
    | [], [] -> Lit (L_int 0)
    | ns, rs ->
        let vars = ns @ rs in
        Prop (Var (Rng.pick_list rng vars), an_int_key rng)
  in
  let atom () =
    match Rng.range rng 0 4 with
    | 0 | 1 ->
        let op = Rng.pick rng [| Eq; Neq; Lt; Le; Gt; Ge |] in
        Cmp (op, entity_prop (), small_int rng)
    | 2 when env.nodes <> [] ->
        Has_labels (Var (Rng.pick_list rng env.nodes), [ a_label rng ])
    | 3 ->
        if Rng.bool rng then Is_null (entity_prop ())
        else Is_not_null (entity_prop ())
    | _ -> In_list (entity_prop (), List_lit [ small_int rng; small_int rng ])
  in
  match Rng.range rng 0 3 with
  | 0 -> And (atom (), atom ())
  | 1 -> Or (atom (), atom ())
  | 2 -> Not (atom ())
  | _ -> atom ()

(* ------------------------------------------------------------------ *)
(* Reading patterns (MATCH)                                           *)
(* ------------------------------------------------------------------ *)

let read_node_pat rng env =
  (* occasionally re-use an already-bound node variable: a join point *)
  if env.nodes <> [] && Rng.chance rng 1 6 then
    { np_var = Some (Rng.pick_list rng env.nodes); np_labels = []; np_props = [] }
  else
    let bound = env.nodes in
    let var = if Rng.chance rng 2 3 then Some (fresh_node env) else None in
    let labs = if Rng.chance rng 1 2 then [ a_label rng ] else [] in
    let props =
      if Rng.chance rng 1 4 then
        (* sometimes the value reads an already-bound node's property:
           planned when bound before the clause, naive otherwise *)
        let key = an_int_key rng in
        let value =
          if bound <> [] && Rng.chance rng 1 3 then
            Prop (Var (Rng.pick_list rng bound), key)
          else small_int rng
        in
        [ (key, value) ]
      else []
    in
    { np_var = var; np_labels = labs; np_props = props }

let read_rel_pat rng env =
  let dir = Rng.pick rng [| Out; In; Undirected |] in
  if Rng.chance rng 1 8 then
    (* variable-length step: anonymous, type-restricted, short range *)
    {
      rp_var = None;
      rp_types = [ Rng.pick rng rel_types ];
      rp_props = [];
      rp_dir = dir;
      rp_range = Some (Some 1, Some 2);
    }
  else
    let var = if Rng.chance rng 1 3 then Some (fresh_rel env) else None in
    let types = if Rng.chance rng 2 3 then [ Rng.pick rng rel_types ] else [] in
    let props =
      if Rng.chance rng 1 8 then [ ("k", small_int rng) ] else []
    in
    { rp_var = var; rp_types = types; rp_props = props; rp_dir = dir; rp_range = None }

let read_pattern rng env =
  let pat_var = if Rng.chance rng 1 6 then Some (fresh_path env) else None in
  let start = read_node_pat rng env in
  let n_steps = Rng.range rng 0 2 in
  let steps =
    List.init n_steps (fun _ ->
        let rp = read_rel_pat rng env in
        (rp, read_node_pat rng env))
  in
  { pat_var; pat_start = start; pat_steps = steps }

let gen_match ?(where_chance = 1) rng env =
  let n_pats = if Rng.chance rng 1 4 then 2 else 1 in
  let patterns = List.init n_pats (fun _ -> read_pattern rng env) in
  let where =
    if (env.nodes <> [] || env.rels <> []) && Rng.chance rng where_chance 2 then
      Some (predicate rng env)
    else None
  in
  let optional = Rng.chance rng 1 6 in
  Match { optional; patterns; where }

(* ------------------------------------------------------------------ *)
(* Update patterns (CREATE / MERGE)                                   *)
(* ------------------------------------------------------------------ *)

let update_props rng ~ctx_nodes ~ctx_scalars =
  let n = Rng.range rng 0 2 in
  List.init n (fun _ -> (an_int_key rng, value_expr rng ~ctx_nodes ~ctx_scalars))

(** A node element of an update pattern: a bound anchor (endpoints
    only), a freshly named node, or an anonymous one. *)
let update_node_pat rng env ~ctx_nodes ~ctx_scalars ~anchor_ok =
  if anchor_ok && ctx_nodes <> [] && Rng.chance rng 1 4 then
    { np_var = Some (Rng.pick_list rng ctx_nodes); np_labels = []; np_props = [] }
  else
    let var = if Rng.chance rng 1 2 then Some (fresh_node env) else None in
    let labs = if Rng.chance rng 2 3 then [ a_label rng ] else [] in
    { np_var = var; np_labels = labs; np_props = update_props rng ~ctx_nodes ~ctx_scalars }

let update_rel_pat rng env ~ctx_nodes ~ctx_scalars =
  let var = if Rng.chance rng 1 4 then Some (fresh_rel env) else None in
  let props =
    if Rng.chance rng 1 4 then [ ("k", value_expr rng ~ctx_nodes ~ctx_scalars) ]
    else []
  in
  {
    rp_var = var;
    rp_types = [ Rng.pick rng rel_types ];
    rp_props = props;
    rp_dir = (if Rng.bool rng then Out else In);
    rp_range = None;
  }

let update_pattern rng env ~ctx_nodes ~ctx_scalars ~max_steps =
  let n_steps = Rng.range rng 0 max_steps in
  (* a bound variable may only anchor an endpoint, never stand alone as
     a single-node pattern (that would re-create a bound variable) *)
  let anchor_ok = n_steps > 0 in
  let start = update_node_pat rng env ~ctx_nodes ~ctx_scalars ~anchor_ok in
  let steps =
    List.init n_steps (fun _ ->
        let rp = update_rel_pat rng env ~ctx_nodes ~ctx_scalars in
        (rp, update_node_pat rng env ~ctx_nodes ~ctx_scalars ~anchor_ok))
  in
  { pat_var = None; pat_start = start; pat_steps = steps }

let gen_create rng env =
  let ctx_nodes = env.nodes and ctx_scalars = env.scalars in
  let n_pats = if Rng.chance rng 1 4 then 2 else 1 in
  Create
    (List.init n_pats (fun _ ->
         update_pattern rng env ~ctx_nodes ~ctx_scalars ~max_steps:2))

let gen_merge rng env =
  let ctx_nodes = env.nodes and ctx_scalars = env.scalars in
  let mode =
    match Rng.range rng 0 4 with
    | 0 | 1 -> Merge_all
    | 2 | 3 -> Merge_same
    | _ -> Merge_legacy
  in
  let n_pats =
    (* Cypher 9 plain MERGE takes a single pattern; keep the rewritten
       legacy runs of the divergence oracle parseable too *)
    if mode <> Merge_legacy && Rng.chance rng 1 4 then 2 else 1
  in
  let before = env.nodes @ env.rels in
  let patterns =
    List.init n_pats (fun _ ->
        update_pattern rng env ~ctx_nodes ~ctx_scalars ~max_steps:1)
  in
  (* ON CREATE / ON MATCH target the variables this MERGE introduced *)
  let introduced =
    List.filter (fun v -> not (List.mem v before))
      (List.concat_map pattern_vars patterns)
  in
  let on_set () =
    if introduced = [] || Rng.chance rng 1 2 then []
    else
      [ Set_prop (Var (Rng.pick_list rng introduced), "x",
                  value_expr rng ~ctx_nodes ~ctx_scalars) ]
  in
  Merge { mode; patterns; on_create = on_set (); on_match = on_set () }

(* ------------------------------------------------------------------ *)
(* Aggregates and shortest paths                                      *)
(* ------------------------------------------------------------------ *)

(** An aggregate over the environment — count( * ), count / collect of
    any variable or value, sum / avg / min / max of an integer value,
    each but count( * ) sometimes DISTINCT — or one inside an
    expression.  Its second component is whether the result is an
    integer a later clause may compute with. *)
let agg_expr rng env =
  let value () = value_expr rng ~ctx_nodes:env.nodes ~ctx_scalars:env.scalars in
  let anything () =
    if all_vars env <> [] && Rng.bool rng then Var (Rng.pick_list rng (all_vars env))
    else value ()
  in
  let distinct = Rng.chance rng 1 3 in
  match Rng.range rng 0 8 with
  | 0 -> (Agg (Count, false, None), true)
  | 1 -> (Agg (Count, distinct, Some (anything ())), true)
  | 2 -> (Agg (Collect, distinct, Some (anything ())), false)
  | 3 -> (Agg (Sum, distinct, Some (value ())), true)
  | 4 -> (Agg (Avg, distinct, Some (value ())), false)
  | 5 -> (Agg (Min, distinct, Some (value ())), true)
  | 6 -> (Agg (Max, distinct, Some (value ())), true)
  | 7 -> (Bin (Add, Agg (Count, false, None), Lit (L_int 1)), true)
  | _ -> (Fn ("size", [ Agg (Collect, distinct, Some (anything ())) ]), true)

(** [shortestPath] or [allShortestPaths] between two bound nodes —
    sometimes the same one — over a random direction, type and range,
    returned as is or through [length] / [size]. *)
let shortest_expr rng env =
  let a = Rng.pick_list rng env.nodes in
  let b = if Rng.chance rng 1 4 then a else Rng.pick_list rng env.nodes in
  let bound v = { np_var = Some v; np_labels = []; np_props = [] } in
  let rp =
    {
      rp_var = None;
      rp_types = (if Rng.bool rng then [ Rng.pick rng rel_types ] else []);
      rp_props = [];
      rp_dir = Rng.pick rng [| Out; In; Undirected |];
      rp_range =
        Some
          (Rng.pick rng
             [| (Some 0, None); (Some 2, Some 3); (None, None); (None, Some 2);
                (Some 1, Some 1); (Some 0, Some 2) |]);
    }
  in
  let sp_all = Rng.bool rng in
  let e =
    Shortest_path
      { sp_all; sp_pattern = { pat_var = None; pat_start = bound a; pat_steps = [ (rp, bound b) ] } }
  in
  if Rng.bool rng then e else Fn ((if sp_all then "size" else "length"), [ e ])

(* ------------------------------------------------------------------ *)
(* SET / REMOVE / DELETE / FOREACH / UNWIND / WITH                    *)
(* ------------------------------------------------------------------ *)

let map_lit rng =
  let n = Rng.range rng 1 2 in
  Map_lit (List.init n (fun _ -> (an_int_key rng, small_int rng)))

let gen_set_item rng env =
  let ctx_nodes = env.nodes and ctx_scalars = env.scalars in
  let node () = Var (Rng.pick_list rng env.nodes) in
  match Rng.range rng 0 5 with
  | 0 | 1 when env.nodes <> [] ->
      Set_prop (node (), an_int_key rng, value_expr rng ~ctx_nodes ~ctx_scalars)
  | 2 when env.rels <> [] ->
      Set_prop (Var (Rng.pick_list rng env.rels), "k",
                value_expr rng ~ctx_nodes ~ctx_scalars)
  | 3 when env.nodes <> [] -> Set_labels (node (), [ a_label rng ])
  | 4 when env.nodes <> [] -> Set_merge_props (node (), map_lit rng)
  | _ when env.nodes <> [] -> Set_all_props (node (), map_lit rng)
  | _ ->
      Set_prop (Var (Rng.pick_list rng env.rels), "k",
                value_expr rng ~ctx_nodes ~ctx_scalars)

let gen_set rng env = Set (Rng.list rng (Rng.range rng 1 2) (fun rng -> gen_set_item rng env))

let gen_remove rng env =
  let item rng =
    let v = Var (Rng.pick_list rng env.nodes) in
    if Rng.bool rng then Rem_prop (v, an_int_key rng)
    else Rem_labels (v, [ a_label rng ])
  in
  Remove (Rng.list rng (Rng.range rng 1 2) item)

let gen_delete rng env =
  let candidates = env.nodes @ env.rels in
  let target = Var (Rng.pick_list rng candidates) in
  Delete { detach = Rng.bool rng; targets = [ target ] }

let gen_foreach rng env =
  let fe_var = fresh env "f" in
  let n = Rng.range rng 1 3 in
  let fe_source = List_lit (List.init n (fun _ -> small_int rng)) in
  let body =
    if env.nodes <> [] && Rng.bool rng then
      [ Set [ Set_prop (Var (Rng.pick_list rng env.nodes), "k", Var fe_var) ] ]
    else
      [
        Create
          [
            {
              pat_var = None;
              pat_start =
                { np_var = None; np_labels = [ a_label rng ];
                  np_props = [ ("k", Var fe_var) ] };
              pat_steps = [];
            };
          ];
      ]
  in
  Foreach { fe_var; fe_source; fe_body = body }

let gen_unwind rng env =
  let n = Rng.range rng 1 3 in
  let source = List_lit (List.init n (fun _ -> small_int rng)) in
  Unwind { source; alias = fresh_scalar env }

(** WITH: keep a non-empty random subset of the environment, optionally
    adding an aggregate; the environment narrows accordingly. *)
let gen_with rng env =
  let vars = all_vars env in
  let kept = List.filter (fun _ -> Rng.chance rng 2 3) vars in
  let kept = if kept = [] then [ Rng.pick_list rng vars ] else kept in
  let items = List.map (fun v -> { item_expr = Var v; item_alias = None }) kept in
  let agg =
    if Rng.chance rng 1 5 then
      let e, int_valued = agg_expr rng env in
      Some (e, fresh env "c", int_valued)
    else None
  in
  let items =
    match agg with
    | Some (e, c, _) -> items @ [ { item_expr = e; item_alias = Some c } ]
    | None -> items
  in
  (* only an integer-valued aggregate joins the scalars later clauses
     compute with *)
  let agg_alias = match agg with Some (_, c, true) -> Some c | _ -> None in
  env.nodes <- List.filter (fun v -> List.mem v kept) env.nodes;
  env.rels <- List.filter (fun v -> List.mem v kept) env.rels;
  env.scalars <-
    List.filter (fun v -> List.mem v kept) env.scalars
    @ Option.to_list agg_alias;
  env.paths <- List.filter (fun v -> List.mem v kept) env.paths;
  let where =
    if Rng.chance rng 1 4 then Some (predicate rng env) else None
  in
  With
    {
      default_projection with
      proj_distinct = Rng.chance rng 1 4;
      proj_items = items;
      proj_where = where;
    }

(* ------------------------------------------------------------------ *)
(* RETURN                                                             *)
(* ------------------------------------------------------------------ *)

(** A grouped RETURN: up to two grouping keys (variables or node
    properties), one or two aggregates, and sometimes ORDER BY an
    aggregate column, a grouping key or an aggregate expression, SKIP
    and LIMIT. *)
let gen_grouped_return rng env =
  let vars = all_vars env in
  let n_keys = Rng.range rng 0 (min 2 (List.length vars)) in
  let keys = List.filteri (fun i _ -> i < n_keys) (Rng.shuffle rng vars) in
  let key_items =
    List.map
      (fun v ->
        if List.mem v env.nodes && Rng.bool rng then
          { item_expr = Prop (Var v, an_int_key rng); item_alias = Some ("p_" ^ v) }
        else { item_expr = Var v; item_alias = None })
      keys
  in
  let agg_items =
    List.init (Rng.range rng 1 2) (fun i ->
        { item_expr = fst (agg_expr rng env); item_alias = Some (Printf.sprintf "a%d" i) })
  in
  let name it = match it.item_alias with Some a -> a | None -> (match it.item_expr with Var v -> v | _ -> "?") in
  let sort_key () =
    let e =
      match Rng.range rng 0 3 with
      | 0 when key_items <> [] -> Var (name (Rng.pick_list rng key_items))
      | 1 -> Agg (Count, false, None)
      | _ -> Var (name (Rng.pick_list rng agg_items))
    in
    { sort_expr = e; sort_ascending = Rng.bool rng }
  in
  let order =
    match Rng.range rng 0 3 with
    | 0 -> []
    | 1 -> [ sort_key (); sort_key () ]
    | _ -> [ sort_key () ]
  in
  Return
    {
      default_projection with
      proj_distinct = Rng.chance rng 1 6;
      proj_items = key_items @ agg_items;
      proj_order = order;
      proj_skip =
        (if Rng.chance rng 1 8 then Some (Lit (L_int (Rng.range rng 0 2))) else None);
      proj_limit =
        (if Rng.chance rng 1 6 then Some (Lit (L_int (Rng.range rng 1 3))) else None);
    }

let gen_return rng env =
  let vars = all_vars env in
  if vars <> [] && Rng.chance rng 1 3 then gen_grouped_return rng env
  else if vars = [] || Rng.chance rng 1 4 then
    Return
      {
        default_projection with
        proj_items = [ { item_expr = Agg (Count, false, None); item_alias = Some "cnt" } ];
      }
  else
    let n = Rng.range rng 1 (min 2 (List.length vars)) in
    let chosen =
      (* distinct variables, in a shuffled order *)
      let shuffled = Rng.shuffle rng vars in
      List.filteri (fun i _ -> i < n) shuffled
    in
    let items =
      List.map
        (fun v ->
          if List.mem v env.nodes && Rng.chance rng 1 3 then
            { item_expr = Prop (Var v, an_int_key rng); item_alias = Some ("p_" ^ v) }
          else if List.mem v env.paths then
            { item_expr = Fn ("length", [ Var v ]); item_alias = Some ("len_" ^ v) }
          else { item_expr = Var v; item_alias = None })
        chosen
    in
    let items =
      if env.nodes <> [] && Rng.chance rng 1 4 then
        items @ [ { item_expr = shortest_expr rng env; item_alias = Some "sp" } ]
      else items
    in
    let names =
      List.map
        (fun i ->
          match (i.item_alias, i.item_expr) with
          | Some a, _ -> a
          | None, Var v -> v
          | None, _ -> "?")
        items
    in
    let order =
      if Rng.chance rng 1 4 then
        [ { sort_expr = Var (Rng.pick_list rng names);
            sort_ascending = Rng.bool rng } ]
      else []
    in
    let skip =
      if Rng.chance rng 1 8 then Some (Lit (L_int (Rng.range rng 0 2))) else None
    in
    let limit =
      if Rng.chance rng 1 8 then Some (Lit (L_int (Rng.range rng 0 2))) else None
    in
    Return
      {
        default_projection with
        proj_distinct = Rng.chance rng 1 6;
        proj_items = items;
        proj_order = order;
        proj_skip = skip;
        proj_limit = limit;
      }

(* ------------------------------------------------------------------ *)
(* Whole statements                                                   *)
(* ------------------------------------------------------------------ *)

(** One random statement: an optional reading opener (MATCH / UNWIND),
    up to three middle clauses drawn from the full update repertoire
    (plus WITH and further MATCHes), and usually a final RETURN.  Always
    scope-correct and valid under the Permissive dialect. *)
let statement rng =
  let env = new_env () in
  let acc = ref [] in
  let add c = acc := c :: !acc in
  (match Rng.range rng 0 5 with
  | 0 | 1 | 2 -> add (gen_match rng env)
  | 3 -> add (gen_unwind rng env)
  | _ -> ());
  let n_mid = Rng.range rng 0 3 in
  for _ = 1 to n_mid do
    let has_entity = env.nodes <> [] || env.rels <> [] in
    let has_vars = all_vars env <> [] in
    let choices =
      [ `Create; `Create; `Merge; `Merge; `Foreach ]
      @ (if has_entity then [ `Set; `Set; `Delete ] else [])
      @ (if env.nodes <> [] then [ `Remove ] else [])
      @ (if has_vars then [ `With ] else [])
      @ [ `Match ]
    in
    match Rng.pick_list rng choices with
    | `Create -> add (gen_create rng env)
    | `Merge -> add (gen_merge rng env)
    | `Foreach -> add (gen_foreach rng env)
    | `Set -> add (gen_set rng env)
    | `Remove -> add (gen_remove rng env)
    | `Delete -> add (gen_delete rng env)
    | `With -> add (gen_with rng env)
    | `Match -> add (gen_match rng env)
  done;
  let clauses = List.rev !acc in
  let clauses = if clauses = [] then [ gen_create rng env ] else clauses in
  let has_update = List.exists is_update_clause clauses in
  let ends_with_with =
    match List.rev clauses with With _ :: _ -> true | _ -> false
  in
  let want_return = (not has_update) || ends_with_with || Rng.chance rng 3 4 in
  let clauses =
    if not want_return then clauses
    else if Rng.chance rng 1 4 then
      (* a MATCH ... WHERE straight into an aggregating projection: the
         shape the engine folds without building the MATCH's table *)
      let m = gen_match ~where_chance:2 rng env in
      clauses @ [ m; gen_grouped_return rng env ]
    else clauses @ [ gen_return rng env ]
  in
  { clauses; union = None }

(* ------------------------------------------------------------------ *)
(* Concurrent workloads (fuzz oracle 8)                               *)
(* ------------------------------------------------------------------ *)

(** One client of a concurrent workload: a single auto-commit statement
    or an explicit transaction of several statements. *)
type actor = Auto of query | Tx of query list

(** [actors rng] generates 2–3 concurrent clients.  Statements come from the same closed vocabulary as
    {!statement}, so concurrent actors collide on the same labels,
    keys and entities — the interesting regime for a committer. *)
let actors rng : actor list =
  let n = Rng.range rng 2 3 in
  List.init n (fun _ ->
      if Rng.bool rng then Auto (statement rng)
      else Tx (List.init (Rng.range rng 1 3) (fun _ -> statement rng)))

(** One generated case: everything any oracle reads.  [extra] extends
    the durability workload; [schedule] seeds the actors' interleaving;
    [match_mode] is the regime the planner oracle matches under, always
    isomorphic here (a corpus entry's [// match:] header sets it). *)
type case = {
  graph : Graph.t; statement : query; extra : query list; actors : actor list; schedule : int;
  match_mode : Cypher_core.Config.match_mode;
}

(** [case seed] draws a case from stream [seed], always in this order,
    so a case seed names the same case wherever it is drawn. *)
let case seed =
  let rng = Rng.make seed in
  let g = graph rng in
  let q = statement rng in
  let extra = [ statement rng; statement rng ] in
  let actors = actors rng in
  { graph = g; statement = q; extra; actors; schedule = Int64.to_int (Rng.next_int64 rng);
    match_mode = Cypher_core.Config.Isomorphic }
