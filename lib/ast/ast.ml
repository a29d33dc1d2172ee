(** Abstract syntax of Cypher queries and updates.

    Covers the read–write language of the paper: the querying core of
    [13] (MATCH / WHERE / WITH / RETURN / UNWIND / UNION) and the update
    clauses of Figures 3–5 (SET / REMOVE / CREATE / DELETE / MERGE /
    FOREACH), together with the revised constructs of Figure 10
    (MERGE ALL / MERGE SAME with tuples of directed update patterns).

    The same AST serves both the Cypher 9 grammar and the revised
    grammar; {!Validate} checks the restrictions that distinguish them. *)

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

type lit =
  | L_null
  | L_bool of bool
  | L_int of int
  | L_float of float
  | L_string of string

type binop = Add | Sub | Mul | Div | Mod | Pow
type cmpop = Eq | Neq | Lt | Le | Gt | Ge
type strop = Starts_with | Ends_with | Contains
type agg_kind = Count | Sum | Avg | Min | Max | Collect

type direction =
  | Out  (** [-[..]->] *)
  | In  (** [<-[..]-] *)
  | Undirected  (** [-[..]-] — reading patterns and Cypher 9 MERGE only *)

type expr =
  | Lit of lit
  | Var of string
  | Param of string  (** [$name] query parameter *)
  | Prop of expr * string  (** [e.key] *)
  | Has_labels of expr * string list  (** predicate [e:Label1:Label2] *)
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Cmp of cmpop * expr * expr
  | Bin of binop * expr * expr
  | Neg of expr  (** unary minus *)
  | Is_null of expr
  | Is_not_null of expr
  | List_lit of expr list
  | Map_lit of (string * expr) list
  | Index of expr * expr  (** [e[i]]: list indexing or map access *)
  | Slice of expr * expr option * expr option  (** [e[a..b]] *)
  | Str_op of strop * expr * expr
  | In_list of expr * expr  (** [e IN list] *)
  | Fn of string * expr list  (** scalar function call (name lowercased) *)
  | Agg of agg_kind * bool * expr option
      (** aggregate; the bool is DISTINCT; [None] is count-star *)
  | Case of case
  | List_comp of {
      comp_var : string;
      comp_source : expr;
      comp_where : expr option;
      comp_body : expr option;
    }  (** [[x IN list WHERE p | e]] *)
  | Quantifier of {
      q_kind : quantifier;
      q_var : string;
      q_source : expr;
      q_pred : expr;
    }  (** [all(x IN list WHERE p)] and friends, under ternary logic *)
  | Reduce of {
      red_acc : string;
      red_init : expr;
      red_var : string;
      red_source : expr;
      red_body : expr;
    }  (** [reduce(acc = init, x IN list | e)] *)

  | Pattern_pred of pattern list
      (** pattern predicate [exists((a)-[:T]->(b))]: true when the
          pattern tuple has an embedding extending the current record *)
  | Pattern_comp of {
      pc_pattern : pattern;
      pc_where : expr option;
      pc_body : expr;
    }  (** pattern comprehension [[(a)-[:T]->(b) WHERE p | e]] *)
  | Shortest_path of { sp_all : bool; sp_pattern : pattern }
      (** [shortestPath((a)-[:T*]->(b))] / [allShortestPaths(...)]:
          a shortest walk between two bound endpoints (or the list of
          all shortest walks) *)

and quantifier = Q_all | Q_any | Q_none | Q_single

and case = {
  case_operand : expr option;
  case_whens : (expr * expr) list;
  case_default : expr option;
}

(* ------------------------------------------------------------------ *)
(* Patterns (Figure 5)                                                *)
(* ------------------------------------------------------------------ *)

and node_pat = {
  np_var : string option;
  np_labels : string list;
  np_props : (string * expr) list;
}

and rel_pat = {
  rp_var : string option;
  rp_types : string list;  (** empty = any type (reading patterns only) *)
  rp_props : (string * expr) list;
  rp_dir : direction;
  rp_range : (int option * int option) option;
      (** variable-length [*min..max]; reading patterns only *)
}

(** A path pattern: a node followed by (relationship, node) steps,
    optionally named ([p = (...)-[...]->(...)]). *)
and pattern = {
  pat_var : string option;
  pat_start : node_pat;
  pat_steps : (rel_pat * node_pat) list;
}

(* ------------------------------------------------------------------ *)
(* Clauses (Figures 2–4 and 10)                                       *)
(* ------------------------------------------------------------------ *)

type sort_item = { sort_expr : expr; sort_ascending : bool }
type proj_item = { item_expr : expr; item_alias : string option }

type projection = {
  proj_distinct : bool;
  proj_star : bool;  (** [RETURN *] / [WITH *] *)
  proj_items : proj_item list;
  proj_order : sort_item list;
  proj_skip : expr option;
  proj_limit : expr option;
  proj_where : expr option;  (** [WITH ... WHERE p] *)
}

type set_item =
  | Set_prop of expr * string * expr  (** [SET e.k = e'] *)
  | Set_all_props of expr * expr  (** [SET e = map] — replaces ι *)
  | Set_merge_props of expr * expr  (** [SET e += map] *)
  | Set_labels of expr * string list  (** [SET e:L1:L2] *)

type remove_item =
  | Rem_prop of expr * string  (** [REMOVE e.k] *)
  | Rem_labels of expr * string list  (** [REMOVE e:L1:L2] *)

(** Which MERGE semantics a clause requests.

    [Merge_legacy] is Cypher 9's per-record match-or-create (reads its own
    writes; order-dependent — Section 4.3).  [Merge_all] and [Merge_same]
    are the adopted semantics of Section 7.  The remaining three are the
    other proposals of Section 6, accepted by the parser so that all five
    can be compared experimentally. *)
type merge_mode =
  | Merge_legacy
  | Merge_all
  | Merge_same
  | Merge_grouping
  | Merge_weak_collapse
  | Merge_collapse

type clause =
  | Match of { optional : bool; patterns : pattern list; where : expr option }
  | Unwind of { source : expr; alias : string }
  | With of projection
  | Return of projection
  | Create of pattern list
  | Set of set_item list
  | Remove of remove_item list
  | Delete of { detach : bool; targets : expr list }
  | Merge of {
      mode : merge_mode;
      patterns : pattern list;
      on_create : set_item list;
      on_match : set_item list;
    }
  | Foreach of { fe_var : string; fe_source : expr; fe_body : clause list }

(** A query is a clause sequence, optionally UNION[ALL]-ed with another. *)
type query = { clauses : clause list; union : (bool * query) option }

let single clauses = { clauses; union = None }

(* ------------------------------------------------------------------ *)
(* Convenience constructors (used by tests and examples)              *)
(* ------------------------------------------------------------------ *)

let node ?var ?(labels = []) ?(props = []) () =
  { np_var = var; np_labels = labels; np_props = props }

let rel ?var ?(types = []) ?(props = []) ?(dir = Out) ?range () =
  { rp_var = var; rp_types = types; rp_props = props; rp_dir = dir;
    rp_range = range }

let path ?var start steps = { pat_var = var; pat_start = start; pat_steps = steps }

let int_lit i = Lit (L_int i)
let str_lit s = Lit (L_string s)
let null_lit = Lit L_null

let default_projection =
  {
    proj_distinct = false;
    proj_star = false;
    proj_items = [];
    proj_order = [];
    proj_skip = None;
    proj_limit = None;
    proj_where = None;
  }

let return_vars vars =
  Return
    {
      default_projection with
      proj_items = List.map (fun v -> { item_expr = Var v; item_alias = None }) vars;
    }

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                 *)
(* ------------------------------------------------------------------ *)

(** [expr_aggs e] is the aggregate nodes of [e] that are not nested
    inside another aggregate, left to right: the accumulator slots an
    aggregating projection compiles [e] to. *)
let expr_aggs e =
  let opt acc go = function None -> acc | Some e -> go acc e in
  let rec go acc = function
    | Agg _ as a -> a :: acc
    | Lit _ | Var _ | Param _ | Shortest_path _ -> acc
    | Prop (e, _) | Has_labels (e, _) | Not e | Neg e | Is_null e
    | Is_not_null e ->
        go acc e
    | And (a, b) | Or (a, b) | Xor (a, b) | Cmp (_, a, b) | Bin (_, a, b)
    | Index (a, b) | Str_op (_, a, b) | In_list (a, b) ->
        go (go acc a) b
    | Slice (e, a, b) -> opt (opt (go acc e) go a) go b
    | List_lit es | Fn (_, es) -> List.fold_left go acc es
    | Map_lit kvs -> props acc kvs
    | Case { case_operand; case_whens; case_default } ->
        let acc = opt acc go case_operand in
        let acc = List.fold_left (fun acc (a, b) -> go (go acc a) b) acc case_whens in
        opt acc go case_default
    | List_comp { comp_source; comp_where; comp_body; _ } ->
        opt (opt (go acc comp_source) go comp_where) go comp_body
    | Quantifier { q_source; q_pred; _ } -> go (go acc q_source) q_pred
    | Pattern_pred patterns ->
        List.fold_left
          (fun acc p ->
            List.fold_left
              (fun acc (rp, np) -> props (props acc rp.rp_props) np.np_props)
              (props acc p.pat_start.np_props)
              p.pat_steps)
          acc patterns
    | Pattern_comp { pc_where; pc_body; _ } -> go (opt acc go pc_where) pc_body
    | Reduce { red_init; red_source; red_body; _ } ->
        go (go (go acc red_init) red_source) red_body
  and props acc kvs = List.fold_left (fun acc (_, e) -> go acc e) acc kvs in
  List.rev (go [] e)

(** [expr_has_agg e] detects aggregate functions anywhere in [e] that are
    not nested inside another aggregate; used to split projection items
    into grouping keys and aggregates. *)
let expr_has_agg e = expr_aggs e <> []

(** Free variable occurrences of an expression, with duplicates:
    variables the expression reads that are not bound locally by a list
    comprehension, quantifier or [reduce].  Variables appearing in
    pattern positions (pattern predicates and comprehensions,
    [shortestPath]) are over-approximated as free.  Used by the match
    planner to decide whether an expression is evaluable under a given
    set of bindings — an over-approximation only costs planning
    opportunities, never correctness. *)
let expr_free_vars e =
  let opt bound acc go = function None -> acc | Some e -> go bound acc e in
  let rec go bound acc = function
    | Var v -> if List.mem v bound then acc else v :: acc
    | Lit _ | Param _ -> acc
    | Prop (e, _) | Has_labels (e, _) | Not e | Neg e | Is_null e
    | Is_not_null e ->
        go bound acc e
    | And (a, b) | Or (a, b) | Xor (a, b) | Cmp (_, a, b) | Bin (_, a, b)
    | Index (a, b) | Str_op (_, a, b) | In_list (a, b) ->
        go bound (go bound acc a) b
    | Slice (e, a, b) -> opt bound (opt bound (go bound acc e) go a) go b
    | List_lit es | Fn (_, es) -> List.fold_left (go bound) acc es
    | Map_lit kvs -> List.fold_left (fun acc (_, e) -> go bound acc e) acc kvs
    | Agg (_, _, eo) -> opt bound acc go eo
    | Case { case_operand; case_whens; case_default } ->
        let acc = opt bound acc go case_operand in
        let acc =
          List.fold_left
            (fun acc (a, b) -> go bound (go bound acc a) b)
            acc case_whens
        in
        opt bound acc go case_default
    | List_comp { comp_var; comp_source; comp_where; comp_body } ->
        let acc = go bound acc comp_source in
        let bound = comp_var :: bound in
        opt bound (opt bound acc go comp_where) go comp_body
    | Quantifier { q_var; q_source; q_pred; _ } ->
        go (q_var :: bound) (go bound acc q_source) q_pred
    | Reduce { red_acc; red_init; red_var; red_source; red_body } ->
        go
          (red_acc :: red_var :: bound)
          (go bound (go bound acc red_init) red_source)
          red_body
    | Pattern_pred ps -> List.fold_left (go_pattern bound) acc ps
    | Pattern_comp { pc_pattern; pc_where; pc_body } ->
        let acc = go_pattern bound acc pc_pattern in
        opt bound (go bound acc pc_body) go pc_where
    | Shortest_path { sp_pattern; _ } -> go_pattern bound acc sp_pattern
  and go_pattern bound acc (p : pattern) =
    (* variable names of the pattern count as free references; its
       property expressions are walked recursively *)
    let node_pat acc (np : node_pat) =
      let acc = Option.fold ~none:acc ~some:(fun v -> v :: acc) np.np_var in
      List.fold_left (fun acc (_, e) -> go bound acc e) acc np.np_props
    in
    let acc = node_pat acc p.pat_start in
    List.fold_left
      (fun acc ((rp : rel_pat), np) ->
        let acc = Option.fold ~none:acc ~some:(fun v -> v :: acc) rp.rp_var in
        let acc =
          List.fold_left (fun acc (_, e) -> go bound acc e) acc rp.rp_props
        in
        node_pat acc np)
      acc p.pat_steps
  in
  go [] [] e

(** Variables bound by a pattern (path, node and relationship names). *)
let pattern_vars (p : pattern) =
  let node_var np = Option.to_list np.np_var in
  let step_vars (rp, np) = Option.to_list rp.rp_var @ node_var np in
  Option.to_list p.pat_var @ node_var p.pat_start
  @ List.concat_map step_vars p.pat_steps

let is_update_clause = function
  | Create _ | Set _ | Remove _ | Delete _ | Merge _ | Foreach _ -> true
  | Match _ | Unwind _ | With _ | Return _ -> false

let is_reading_clause = function
  | Match _ | Unwind _ -> true
  | With _ | Return _ | Create _ | Set _ | Remove _ | Delete _ | Merge _
  | Foreach _ ->
      false
