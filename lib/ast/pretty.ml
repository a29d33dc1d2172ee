(** Pretty-printing of the AST back to Cypher concrete syntax.

    The output re-parses to the same AST (a qcheck property in the test
    suite), which also makes it a convenient canonical form for
    diagnostics and the REPL. *)

open Ast

let pp_escaped ppf s = Fmt.pf ppf "'%s'" (Cypher_graph.Value.escape_string s)

(* names print bare when plain and backtick-quoted otherwise, so a name
   such as [My Label] re-parses to itself *)
let ident = Cypher_graph.Dump.quote_ident
let pp_ident ppf s = Fmt.string ppf (ident s)
let labels ls = String.concat "" (List.map (fun l -> ":" ^ ident l) ls)

let pp_lit ppf = function
  | L_null -> Fmt.string ppf "null"
  | L_bool b -> Fmt.bool ppf b
  | L_int i -> Fmt.int ppf i
  | L_float f ->
      (* the snapshot writer's literal, which re-parses bit-exactly *)
      Fmt.string ppf (Cypher_graph.Dump.value_literal (Cypher_graph.Value.Float f))
  | L_string s -> pp_escaped ppf s

let binop_sym = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Pow -> "^"

let cmpop_sym = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let strop_sym = function
  | Starts_with -> "STARTS WITH"
  | Ends_with -> "ENDS WITH"
  | Contains -> "CONTAINS"

let agg_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"
  | Collect -> "collect"

(* Expressions are printed fully parenthesised below the comparison
   level; this avoids a precedence table and still round-trips. *)
let rec pp_expr ppf = function
  | Lit l -> pp_lit ppf l
  | Var v -> pp_ident ppf v
  | Param p -> Fmt.pf ppf "$%s" p
  | Prop (e, k) -> Fmt.pf ppf "%a.%a" pp_atom e pp_ident k
  | Has_labels (e, ls) -> Fmt.pf ppf "%a%s" pp_atom e (labels ls)
  | Not e -> Fmt.pf ppf "(NOT %a)" pp_atom e
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp_expr a pp_expr b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp_expr a pp_expr b
  | Xor (a, b) -> Fmt.pf ppf "(%a XOR %a)" pp_expr a pp_expr b
  | Cmp (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (cmpop_sym op) pp_expr b
  | Bin (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_sym op) pp_expr b
  | Neg e -> Fmt.pf ppf "(-%a)" pp_atom e
  | Is_null e -> Fmt.pf ppf "(%a IS NULL)" pp_expr e
  | Is_not_null e -> Fmt.pf ppf "(%a IS NOT NULL)" pp_expr e
  | List_lit es -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp_expr) es
  | Map_lit kvs -> pp_map ppf kvs
  | Index (e, i) -> Fmt.pf ppf "%a[%a]" pp_atom e pp_expr i
  | Slice (e, a, b) ->
      Fmt.pf ppf "%a[%a..%a]" pp_atom e
        Fmt.(option pp_expr)
        a
        Fmt.(option pp_expr)
        b
  | Str_op (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_expr a (strop_sym op) pp_expr b
  | In_list (a, b) -> Fmt.pf ppf "(%a IN %a)" pp_expr a pp_expr b
  | Fn (name, args) ->
      Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:(any ", ") pp_expr) args
  | Agg (kind, distinct, arg) -> (
      match arg with
      | None -> Fmt.pf ppf "count(*)"
      | Some e ->
          Fmt.pf ppf "%s(%s%a)" (agg_name kind)
            (if distinct then "DISTINCT " else "")
            pp_expr e)
  | Case { case_operand; case_whens; case_default } ->
      Fmt.pf ppf "CASE";
      Option.iter (fun e -> Fmt.pf ppf " %a" pp_expr e) case_operand;
      List.iter
        (fun (w, t) -> Fmt.pf ppf " WHEN %a THEN %a" pp_expr w pp_expr t)
        case_whens;
      Option.iter (fun e -> Fmt.pf ppf " ELSE %a" pp_expr e) case_default;
      Fmt.pf ppf " END"
  | List_comp { comp_var; comp_source; comp_where; comp_body } ->
      Fmt.pf ppf "[%a IN %a" pp_ident comp_var pp_expr comp_source;
      Option.iter (fun e -> Fmt.pf ppf " WHERE %a" pp_expr e) comp_where;
      Option.iter (fun e -> Fmt.pf ppf " | %a" pp_expr e) comp_body;
      Fmt.pf ppf "]"
  | Quantifier { q_kind; q_var; q_source; q_pred } ->
      let kw =
        match q_kind with
        | Q_all -> "all"
        | Q_any -> "any"
        | Q_none -> "none"
        | Q_single -> "single"
      in
      Fmt.pf ppf "%s(%a IN %a WHERE %a)" kw pp_ident q_var pp_expr q_source
        pp_expr q_pred
  | Reduce { red_acc; red_init; red_var; red_source; red_body } ->
      Fmt.pf ppf "reduce(%a = %a, %a IN %a | %a)" pp_ident red_acc pp_expr
        red_init pp_ident red_var pp_expr red_source pp_expr red_body
  | Pattern_pred patterns ->
      Fmt.pf ppf "exists(%a)"
        Fmt.(list ~sep:(any ", ") pp_pattern)
        patterns
  | Pattern_comp { pc_pattern; pc_where; pc_body } ->
      Fmt.pf ppf "[%a" pp_pattern pc_pattern;
      Option.iter (fun e -> Fmt.pf ppf " WHERE %a" pp_expr e) pc_where;
      Fmt.pf ppf " | %a]" pp_expr pc_body
  | Shortest_path { sp_all; sp_pattern } ->
      Fmt.pf ppf "%s(%a)"
        (if sp_all then "allShortestPaths" else "shortestPath")
        pp_pattern sp_pattern

and pp_atom ppf e =
  match e with
  | Lit _ | Var _ | Param _ | List_lit _ | Map_lit _ | Fn _ | Agg _ | Prop _
  | Index _ ->
      pp_expr ppf e
  | _ -> Fmt.pf ppf "(%a)" pp_expr e

and pp_map ppf kvs =
  Fmt.pf ppf "{%a}"
    Fmt.(
      list ~sep:(any ", ") (fun ppf (k, e) -> pf ppf "%a: %a" pp_ident k pp_expr e))
    kvs

(* ------------------------------------------------------------------ *)
(* Patterns                                                           *)
(* ------------------------------------------------------------------ *)

and pp_node_pat ppf np =
  Fmt.pf ppf "(%s%s%s)"
    (Option.fold ~none:"" ~some:ident np.np_var)
    (labels np.np_labels)
    (if np.np_props = [] then ""
     else Fmt.str " %a" (fun ppf -> pp_map ppf) np.np_props)

and pp_rel_pat ppf rp =
  let body ppf () =
    let name = Option.fold ~none:"" ~some:ident rp.rp_var in
    let types =
      match rp.rp_types with
      | [] -> ""
      | ts -> ":" ^ String.concat "|" (List.map ident ts)
    in
    let range =
      match rp.rp_range with
      | None -> ""
      | Some (lo, hi) ->
          let s = function None -> "" | Some n -> string_of_int n in
          Fmt.str "*%s..%s" (s lo) (s hi)
    in
    let props =
      if rp.rp_props = [] then ""
      else Fmt.str " %a" (fun ppf -> pp_map ppf) rp.rp_props
    in
    Fmt.pf ppf "[%s%s%s%s]" name types range props
  in
  match rp.rp_dir with
  | Out -> Fmt.pf ppf "-%a->" body ()
  | In -> Fmt.pf ppf "<-%a-" body ()
  | Undirected -> Fmt.pf ppf "-%a-" body ()

and pp_pattern ppf p =
  Option.iter (fun v -> Fmt.pf ppf "%a = " pp_ident v) p.pat_var;
  pp_node_pat ppf p.pat_start;
  List.iter
    (fun (rp, np) -> Fmt.pf ppf "%a%a" pp_rel_pat rp pp_node_pat np)
    p.pat_steps

let pp_patterns ppf ps = Fmt.(list ~sep:(any ", ") pp_pattern) ppf ps

(* ------------------------------------------------------------------ *)
(* Clauses                                                            *)
(* ------------------------------------------------------------------ *)

let pp_set_item ppf = function
  | Set_prop (e, k, v) -> Fmt.pf ppf "%a.%a = %a" pp_atom e pp_ident k pp_expr v
  | Set_all_props (e, v) -> Fmt.pf ppf "%a = %a" pp_atom e pp_expr v
  | Set_merge_props (e, v) -> Fmt.pf ppf "%a += %a" pp_atom e pp_expr v
  | Set_labels (e, ls) -> Fmt.pf ppf "%a%s" pp_atom e (labels ls)

let pp_remove_item ppf = function
  | Rem_prop (e, k) -> Fmt.pf ppf "%a.%a" pp_atom e pp_ident k
  | Rem_labels (e, ls) -> Fmt.pf ppf "%a%s" pp_atom e (labels ls)

let pp_proj_item ppf { item_expr; item_alias } =
  match item_alias with
  | None -> pp_expr ppf item_expr
  | Some a -> Fmt.pf ppf "%a AS %a" pp_expr item_expr pp_ident a

let pp_projection keyword ppf p =
  Fmt.pf ppf "%s %s" keyword (if p.proj_distinct then "DISTINCT " else "");
  if p.proj_star then (
    Fmt.string ppf "*";
    if p.proj_items <> [] then
      Fmt.pf ppf ", %a" Fmt.(list ~sep:(any ", ") pp_proj_item) p.proj_items)
  else Fmt.(list ~sep:(any ", ") pp_proj_item) ppf p.proj_items;
  if p.proj_order <> [] then
    Fmt.pf ppf " ORDER BY %a"
      Fmt.(
        list ~sep:(any ", ") (fun ppf s ->
            pf ppf "%a%s" pp_expr s.sort_expr
              (if s.sort_ascending then "" else " DESC")))
      p.proj_order;
  Option.iter (fun e -> Fmt.pf ppf " SKIP %a" pp_expr e) p.proj_skip;
  Option.iter (fun e -> Fmt.pf ppf " LIMIT %a" pp_expr e) p.proj_limit;
  Option.iter (fun e -> Fmt.pf ppf " WHERE %a" pp_expr e) p.proj_where

let merge_keyword = function
  | Merge_legacy -> "MERGE"
  | Merge_all -> "MERGE ALL"
  | Merge_same -> "MERGE SAME"
  | Merge_grouping -> "MERGE GROUPING"
  | Merge_weak_collapse -> "MERGE WEAK"
  | Merge_collapse -> "MERGE COLLAPSE"

let rec pp_clause ppf = function
  | Match { optional; patterns; where } ->
      Fmt.pf ppf "%sMATCH %a" (if optional then "OPTIONAL " else "") pp_patterns
        patterns;
      Option.iter (fun e -> Fmt.pf ppf " WHERE %a" pp_expr e) where
  | Unwind { source; alias } ->
      Fmt.pf ppf "UNWIND %a AS %a" pp_expr source pp_ident alias
  | With p -> pp_projection "WITH" ppf p
  | Return p -> pp_projection "RETURN" ppf p
  | Create ps -> Fmt.pf ppf "CREATE %a" pp_patterns ps
  | Set items ->
      Fmt.pf ppf "SET %a" Fmt.(list ~sep:(any ", ") pp_set_item) items
  | Remove items ->
      Fmt.pf ppf "REMOVE %a" Fmt.(list ~sep:(any ", ") pp_remove_item) items
  | Delete { detach; targets } ->
      Fmt.pf ppf "%sDELETE %a"
        (if detach then "DETACH " else "")
        Fmt.(list ~sep:(any ", ") pp_expr)
        targets
  | Merge { mode; patterns; on_create; on_match } ->
      Fmt.pf ppf "%s %a" (merge_keyword mode) pp_patterns patterns;
      if on_create <> [] then
        Fmt.pf ppf " ON CREATE SET %a"
          Fmt.(list ~sep:(any ", ") pp_set_item)
          on_create;
      if on_match <> [] then
        Fmt.pf ppf " ON MATCH SET %a"
          Fmt.(list ~sep:(any ", ") pp_set_item)
          on_match
  | Foreach { fe_var; fe_source; fe_body } ->
      Fmt.pf ppf "FOREACH (%a IN %a | %a)" pp_ident fe_var pp_expr fe_source
        Fmt.(list ~sep:(any " ") pp_clause)
        fe_body

let rec pp_query ppf q =
  Fmt.(list ~sep:(any "@ ") pp_clause) ppf q.clauses;
  match q.union with
  | None -> ()
  | Some (all, q') ->
      Fmt.pf ppf "@ UNION%s@ %a" (if all then " ALL" else "") pp_query q'

let query_to_string q = Fmt.str "@[<h>%a@]" pp_query q
let expr_to_string e = Fmt.str "%a" pp_expr e
let clause_to_string c = Fmt.str "@[<h>%a@]" pp_clause c
