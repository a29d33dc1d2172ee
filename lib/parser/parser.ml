(** Recursive-descent parser for Cypher.

    Parses the union of the Cypher 9 grammar (Figures 2–5) and the revised
    grammar (Figure 10); dialect-specific restrictions are enforced
    afterwards by {!Cypher_ast.Validate}.  In addition to [MERGE ALL] and
    [MERGE SAME], the experimental spellings [MERGE GROUPING],
    [MERGE WEAK] and [MERGE COLLAPSE] are accepted for the remaining
    Section 6 proposals (Permissive dialect only). *)

open Cypher_ast.Ast

type error = { message : string; line : int; col : int }

let error_to_string e =
  Printf.sprintf "parse error at line %d, column %d: %s" e.line e.col e.message

exception Parse_error of error

type state = {
  toks : Token.t array;
  mutable idx : int;
  mutable params : (string * (int * int)) list;
      (* every [$name] occurrence with its source position, in reverse
         token order; harvested by [parse_statement_params] *)
}

let make_state toks = { toks = Array.of_list toks; idx = 0; params = [] }

let cur st = st.toks.(st.idx)
let cur_kind st = (cur st).Token.kind

let peek_kind st n =
  let i = st.idx + n in
  if i < Array.length st.toks then st.toks.(i).Token.kind else Token.Eof

let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

let fail st fmt =
  let tok = cur st in
  Format.kasprintf
    (fun message ->
      raise (Parse_error { message; line = tok.Token.line; col = tok.Token.col }))
    fmt

let expect st kind =
  if cur_kind st = kind then advance st
  else
    fail st "expected %s but found %s" (Token.describe kind)
      (Token.describe (cur_kind st))

let at_kw st kw = Token.is_kw (cur_kind st) kw
let peek_kw st n kw = Token.is_kw (peek_kind st n) kw

let eat_kw st kw =
  if at_kw st kw then (
    advance st;
    true)
  else false

let expect_kw st kw =
  if not (eat_kw st kw) then
    fail st "expected keyword %s but found %s" kw
      (Token.describe (cur_kind st))

let expect_ident st =
  match cur_kind st with
  | Token.Ident s ->
      advance st;
      s
  | k -> fail st "expected an identifier but found %s" (Token.describe k)

(* Keywords that may not be used as bare variable names: those that can
   start a clause or an expression construct, or that the projection
   machinery consumes positionally (DISTINCT).  Contextual keywords such
   as ORDER, SKIP, LIMIT, ON, STARTS, CONTAINS remain valid variable
   names — the paper's own Section 4.2 query binds a relationship to
   [order]. *)
let clause_keywords =
  [
    "MATCH"; "OPTIONAL"; "WHERE"; "RETURN"; "WITH"; "UNWIND"; "CREATE"; "SET";
    "REMOVE"; "DELETE"; "DETACH"; "MERGE"; "FOREACH"; "UNION"; "AS"; "AND";
    "OR"; "XOR"; "NOT"; "WHEN"; "THEN"; "ELSE"; "END"; "CASE"; "DISTINCT";
    "IN"; "IS"; "EXPLAIN"; "PROFILE";
  ]

let is_reserved s = List.mem (String.uppercase_ascii s) clause_keywords

let agg_of_name s =
  match String.lowercase_ascii s with
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "avg" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | "collect" -> Some Collect
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_xor st in
  if at_kw st "OR" then (
    advance st;
    Or (lhs, parse_or st))
  else lhs

and parse_xor st =
  let lhs = parse_and st in
  if at_kw st "XOR" then (
    advance st;
    Xor (lhs, parse_xor st))
  else lhs

and parse_and st =
  let lhs = parse_not st in
  if at_kw st "AND" then (
    advance st;
    And (lhs, parse_and st))
  else lhs

and parse_not st =
  if at_kw st "NOT" then (
    advance st;
    Not (parse_not st))
  else parse_comparison st

and parse_comparison st =
  let lhs = parse_add_sub st in
  let rec loop lhs =
    match cur_kind st with
    | Token.Eq ->
        advance st;
        loop (Cmp (Eq, lhs, parse_add_sub st))
    | Token.Neq ->
        advance st;
        loop (Cmp (Neq, lhs, parse_add_sub st))
    | Token.Lt ->
        advance st;
        loop (Cmp (Lt, lhs, parse_add_sub st))
    | Token.Le ->
        advance st;
        loop (Cmp (Le, lhs, parse_add_sub st))
    | Token.Gt ->
        advance st;
        loop (Cmp (Gt, lhs, parse_add_sub st))
    | Token.Ge ->
        advance st;
        loop (Cmp (Ge, lhs, parse_add_sub st))
    | Token.Ident _ when at_kw st "IS" ->
        advance st;
        if eat_kw st "NOT" then (
          expect_kw st "NULL";
          loop (Is_not_null lhs))
        else (
          expect_kw st "NULL";
          loop (Is_null lhs))
    | Token.Ident _ when at_kw st "IN" ->
        advance st;
        loop (In_list (lhs, parse_add_sub st))
    | Token.Ident _ when at_kw st "STARTS" ->
        advance st;
        expect_kw st "WITH";
        loop (Str_op (Starts_with, lhs, parse_add_sub st))
    | Token.Ident _ when at_kw st "ENDS" ->
        advance st;
        expect_kw st "WITH";
        loop (Str_op (Ends_with, lhs, parse_add_sub st))
    | Token.Ident _ when at_kw st "CONTAINS" ->
        advance st;
        loop (Str_op (Contains, lhs, parse_add_sub st))
    | _ -> lhs
  in
  loop lhs

and parse_add_sub st =
  let lhs = parse_mul_div st in
  let rec loop lhs =
    match cur_kind st with
    | Token.Plus ->
        advance st;
        loop (Bin (Add, lhs, parse_mul_div st))
    | Token.Minus ->
        advance st;
        loop (Bin (Sub, lhs, parse_mul_div st))
    | _ -> lhs
  in
  loop lhs

and parse_mul_div st =
  let lhs = parse_pow st in
  let rec loop lhs =
    match cur_kind st with
    | Token.Star ->
        advance st;
        loop (Bin (Mul, lhs, parse_pow st))
    | Token.Slash ->
        advance st;
        loop (Bin (Div, lhs, parse_pow st))
    | Token.Percent ->
        advance st;
        loop (Bin (Mod, lhs, parse_pow st))
    | _ -> lhs
  in
  loop lhs

and parse_pow st =
  let lhs = parse_unary st in
  match cur_kind st with
  | Token.Caret ->
      advance st;
      Bin (Pow, lhs, parse_pow st)
  | _ -> lhs

and parse_unary st =
  match cur_kind st with
  | Token.Minus -> (
      advance st;
      (* fold negation of numeric literals so that -59 is a literal *)
      match parse_unary st with
      | Lit (L_int i) -> Lit (L_int (-i))
      | Lit (L_float f) -> Lit (L_float (-.f))
      | e -> Neg e)
  | Token.Plus ->
      advance st;
      parse_unary st
  | _ -> parse_postfix st

(** Postfix chain: property access, indexing, slicing, label predicate. *)
and parse_postfix st =
  let atom = parse_atom st in
  let rec loop e =
    match cur_kind st with
    | Token.Dot ->
        advance st;
        let key = expect_ident st in
        loop (Prop (e, key))
    | Token.Lbracket ->
        advance st;
        (* distinguish slice [a..b] from index [i] *)
        if cur_kind st = Token.Dotdot then (
          advance st;
          if cur_kind st = Token.Rbracket then (
            advance st;
            loop (Slice (e, None, None)))
          else
            let hi = parse_expr st in
            expect st Token.Rbracket;
            loop (Slice (e, None, Some hi)))
        else
          let first = parse_expr st in
          if cur_kind st = Token.Dotdot then (
            advance st;
            if cur_kind st = Token.Rbracket then (
              advance st;
              loop (Slice (e, Some first, None)))
            else
              let hi = parse_expr st in
              expect st Token.Rbracket;
              loop (Slice (e, Some first, Some hi)))
          else (
            expect st Token.Rbracket;
            loop (Index (e, first)))
    | Token.Colon ->
        (* label predicate e:L1:L2 *)
        let rec labels acc =
          if cur_kind st = Token.Colon then (
            advance st;
            let l = expect_ident st in
            labels (l :: acc))
          else List.rev acc
        in
        let ls = labels [] in
        loop (Has_labels (e, ls))
    | _ -> e
  in
  loop atom

and parse_atom st =
  match cur_kind st with
  | Token.Int i ->
      advance st;
      Lit (L_int i)
  | Token.Float f ->
      advance st;
      Lit (L_float f)
  | Token.Str s ->
      advance st;
      Lit (L_string s)
  | Token.Param p ->
      let tok = cur st in
      st.params <- (p, (tok.Token.line, tok.Token.col)) :: st.params;
      advance st;
      Param p
  | Token.Lparen ->
      advance st;
      let e = parse_expr st in
      expect st Token.Rparen;
      e
  | Token.Lbrace -> Map_lit (parse_map_body st)
  | Token.Lbracket -> parse_list_or_comprehension st
  | Token.Ident _ when at_kw st "NULL" ->
      advance st;
      Lit L_null
  | Token.Ident _ when at_kw st "TRUE" ->
      advance st;
      Lit (L_bool true)
  | Token.Ident _ when at_kw st "FALSE" ->
      advance st;
      Lit (L_bool false)
  | Token.Ident _ when at_kw st "CASE" -> parse_case st
  | Token.Ident name
    when peek_kind st 1 = Token.Lparen && not (is_reserved name) ->
      advance st;
      advance st;
      parse_call st name
  | Token.Ident name ->
      if is_reserved name then
        fail st "unexpected keyword %s in expression" name
      else (
        advance st;
        Var name)
  | k -> fail st "expected an expression but found %s" (Token.describe k)

and parse_call st name =
  (* after the opening parenthesis *)
  let quantifier_of_name =
    match String.lowercase_ascii name with
    | "all" -> Some Q_all
    | "any" -> Some Q_any
    | "none" -> Some Q_none
    | "single" -> Some Q_single
    | _ -> None
  in
  let looks_like_binder () =
    (* x IN ... distinguishes quantifiers/reduce from plain calls *)
    match cur_kind st with
    | Token.Ident v -> (not (is_reserved v)) && peek_kw st 1 "IN"
    | _ -> false
  in
  match agg_of_name name with
  | None
    when (String.lowercase_ascii name = "shortestpath"
         || String.lowercase_ascii name = "allshortestpaths")
         && cur_kind st = Token.Lparen ->
      let sp_all = String.lowercase_ascii name = "allshortestpaths" in
      let sp_pattern = parse_pattern st in
      expect st Token.Rparen;
      Shortest_path { sp_all; sp_pattern }
  | None
    when String.lowercase_ascii name = "exists" && cur_kind st = Token.Lparen
    ->
      (* exists( (..)-[..]->(..) [, ...] ): a pattern predicate.  The
         value form exists(n.prop) starts with an identifier, never with
         '(' — so the opening parenthesis disambiguates. *)
      let patterns = parse_pattern_list st in
      expect st Token.Rparen;
      Pattern_pred patterns
  | Some Count when cur_kind st = Token.Star ->
      advance st;
      expect st Token.Rparen;
      Agg (Count, false, None)
  | Some kind ->
      let distinct = eat_kw st "DISTINCT" in
      let arg = parse_expr st in
      expect st Token.Rparen;
      Agg (kind, distinct, Some arg)
  | None when quantifier_of_name <> None && looks_like_binder () ->
      let q_kind = Option.get quantifier_of_name in
      let q_var = expect_ident st in
      expect_kw st "IN";
      let q_source = parse_expr st in
      expect_kw st "WHERE";
      let q_pred = parse_expr st in
      expect st Token.Rparen;
      Quantifier { q_kind; q_var; q_source; q_pred }
  | None
    when String.lowercase_ascii name = "reduce"
         && (match (cur_kind st, peek_kind st 1) with
            | Token.Ident v, Token.Eq -> not (is_reserved v)
            | _ -> false) ->
      let red_acc = expect_ident st in
      expect st Token.Eq;
      let red_init = parse_expr st in
      expect st Token.Comma;
      let red_var = expect_ident st in
      expect_kw st "IN";
      let red_source = parse_expr st in
      expect st Token.Pipe;
      let red_body = parse_expr st in
      expect st Token.Rparen;
      Reduce { red_acc; red_init; red_var; red_source; red_body }
  | None ->
      let rec args acc =
        if cur_kind st = Token.Rparen then (
          advance st;
          List.rev acc)
        else
          let e = parse_expr st in
          if cur_kind st = Token.Comma then (
            advance st;
            args (e :: acc))
          else (
            expect st Token.Rparen;
            List.rev (e :: acc))
      in
      let args = args [] in
      Fn (String.lowercase_ascii name, args)

and parse_case st =
  advance st (* CASE *);
  let operand =
    if at_kw st "WHEN" then None else Some (parse_expr st)
  in
  let rec whens acc =
    if eat_kw st "WHEN" then (
      let w = parse_expr st in
      expect_kw st "THEN";
      let t = parse_expr st in
      whens ((w, t) :: acc))
    else List.rev acc
  in
  let case_whens = whens [] in
  if case_whens = [] then fail st "CASE requires at least one WHEN branch";
  let case_default = if eat_kw st "ELSE" then Some (parse_expr st) else None in
  expect_kw st "END";
  Case { case_operand = operand; case_whens; case_default }

and parse_list_or_comprehension st =
  expect st Token.Lbracket;
  if cur_kind st = Token.Rbracket then (
    advance st;
    List_lit [])
  else if cur_kind st = Token.Lparen then (
    (* could be a pattern comprehension [(a)-[:T]->(b) WHERE p | e] or a
       parenthesised expression starting a list literal; try the pattern
       first and backtrack on failure *)
    let saved = st.idx in
    match parse_pattern_comprehension st with
    | Some e -> e
    | None ->
        st.idx <- saved;
        parse_list_items st)
  else
    (* [x IN e ...] is a comprehension when an identifier is followed by IN *)
    match cur_kind st with
    | Token.Ident v when (not (is_reserved v)) && peek_kw st 1 "IN" ->
        advance st;
        advance st;
        let comp_source = parse_expr st in
        let comp_where =
          if eat_kw st "WHERE" then Some (parse_expr st) else None
        in
        let comp_body =
          if cur_kind st = Token.Pipe then (
            advance st;
            Some (parse_expr st))
          else None
        in
        expect st Token.Rbracket;
        List_comp { comp_var = v; comp_source; comp_where; comp_body }
    | _ -> parse_list_items st

(** Remaining elements of a plain list literal (after '['). *)
and parse_list_items st =
  let rec items acc =
    let e = parse_expr st in
    if cur_kind st = Token.Comma then (
      advance st;
      items (e :: acc))
    else (
      expect st Token.Rbracket;
      List.rev (e :: acc))
  in
  List_lit (items [])

(** Attempts to parse [pattern (WHERE p)? | e ] (after '[').  Returns
    [None] — leaving the caller to backtrack — when the bracket content
    is not a pattern comprehension.  A genuine comprehension requires at
    least one relationship step and the '|' separator, which is what
    distinguishes it from a parenthesised expression. *)
and parse_pattern_comprehension st =
  match
    let p = parse_pattern st in
    if p.pat_steps = [] then None
    else
      let pc_where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
      if cur_kind st <> Token.Pipe then None
      else begin
        advance st;
        let pc_body = parse_expr st in
        expect st Token.Rbracket;
        Some (Pattern_comp { pc_pattern = p; pc_where; pc_body })
      end
  with
  | result -> result
  | exception Parse_error _ -> None

and parse_map_body st =
  expect st Token.Lbrace;
  if cur_kind st = Token.Rbrace then (
    advance st;
    [])
  else
    let rec pairs acc =
      let key = expect_ident st in
      expect st Token.Colon;
      let v = parse_expr st in
      if cur_kind st = Token.Comma then (
        advance st;
        pairs ((key, v) :: acc))
      else (
        expect st Token.Rbrace;
        List.rev ((key, v) :: acc))
    in
    pairs []

(* ------------------------------------------------------------------ *)
(* Patterns                                                           *)
(* ------------------------------------------------------------------ *)

and parse_node_pat st =
  expect st Token.Lparen;
  let np_var =
    match cur_kind st with
    | Token.Ident v when not (is_reserved v) ->
        advance st;
        Some v
    | _ -> None
  in
  let rec labels acc =
    if cur_kind st = Token.Colon then (
      advance st;
      let l = expect_ident st in
      labels (l :: acc))
    else List.rev acc
  in
  let np_labels = labels [] in
  let np_props = if cur_kind st = Token.Lbrace then parse_map_body st else [] in
  expect st Token.Rparen;
  { np_var; np_labels; np_props }

(** Parses the bracketed core of a relationship pattern:
    an optional name, optional type alternatives, optional range,
    optional property map. *)
and parse_rel_detail st =
  let rp_var =
    match cur_kind st with
    | Token.Ident v when not (is_reserved v) ->
        advance st;
        Some v
    | _ -> None
  in
  let rp_types =
    if cur_kind st = Token.Colon then (
      advance st;
      let rec types acc =
        let t = expect_ident st in
        if cur_kind st = Token.Pipe then (
          advance st;
          (* allow the :A|:B spelling as well as :A|B *)
          if cur_kind st = Token.Colon then advance st;
          types (t :: acc))
        else List.rev (t :: acc)
      in
      types [])
    else []
  in
  let rp_range =
    if cur_kind st = Token.Star then (
      advance st;
      match cur_kind st with
      | Token.Int lo -> (
          advance st;
          if cur_kind st = Token.Dotdot then (
            advance st;
            match cur_kind st with
            | Token.Int hi ->
                advance st;
                Some (Some lo, Some hi)
            | _ -> Some (Some lo, None))
          else Some (Some lo, Some lo))
      | Token.Dotdot -> (
          advance st;
          match cur_kind st with
          | Token.Int hi ->
              advance st;
              Some (None, Some hi)
          | _ -> Some (None, None))
      | _ -> Some (None, None))
    else None
  in
  let rp_props = if cur_kind st = Token.Lbrace then parse_map_body st else [] in
  (rp_var, rp_types, rp_range, rp_props)

(** Parses one relationship step.  Entry token is either [<-] or [-]. *)
and parse_rel_pat st =
  match cur_kind st with
  | Token.Larrow ->
      advance st;
      let rp_var, rp_types, rp_range, rp_props =
        if cur_kind st = Token.Lbracket then (
          advance st;
          let d = parse_rel_detail st in
          expect st Token.Rbracket;
          d)
        else (None, [], None, [])
      in
      expect st Token.Minus;
      { rp_var; rp_types; rp_props; rp_dir = In; rp_range }
  | Token.Minus -> (
      advance st;
      let rp_var, rp_types, rp_range, rp_props =
        if cur_kind st = Token.Lbracket then (
          advance st;
          let d = parse_rel_detail st in
          expect st Token.Rbracket;
          d)
        else (None, [], None, [])
      in
      match cur_kind st with
      | Token.Arrow ->
          advance st;
          { rp_var; rp_types; rp_props; rp_dir = Out; rp_range }
      | Token.Minus ->
          advance st;
          { rp_var; rp_types; rp_props; rp_dir = Undirected; rp_range }
      | k ->
          fail st "expected '->' or '-' to close relationship pattern, found %s"
            (Token.describe k))
  | k -> fail st "expected a relationship pattern but found %s" (Token.describe k)

and parse_pattern st =
  let pat_var =
    match (cur_kind st, peek_kind st 1) with
    | Token.Ident v, Token.Eq when not (is_reserved v) ->
        advance st;
        advance st;
        Some v
    | _ -> None
  in
  let pat_start = parse_node_pat st in
  let rec steps acc =
    match cur_kind st with
    | Token.Minus | Token.Larrow ->
        let rp = parse_rel_pat st in
        let np = parse_node_pat st in
        steps ((rp, np) :: acc)
    | _ -> List.rev acc
  in
  let pat_steps = steps [] in
  { pat_var; pat_start; pat_steps }

and parse_pattern_list st =
  let rec loop acc =
    let p = parse_pattern st in
    if cur_kind st = Token.Comma then (
      advance st;
      loop (p :: acc))
    else List.rev (p :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Clauses                                                            *)
(* ------------------------------------------------------------------ *)

let parse_set_item st =
  let lhs = parse_postfix st in
  match (lhs, cur_kind st) with
  | Has_labels (e, ls), _ -> Set_labels (e, ls)
  | Prop (e, k), Token.Eq ->
      advance st;
      Set_prop (e, k, parse_expr st)
  | e, Token.Eq ->
      advance st;
      Set_all_props (e, parse_expr st)
  | e, Token.Pluseq ->
      advance st;
      Set_merge_props (e, parse_expr st)
  | _, k ->
      fail st "malformed SET item: expected '=', '+=' or labels, found %s"
        (Token.describe k)

let parse_set_items st =
  let rec loop acc =
    let item = parse_set_item st in
    if cur_kind st = Token.Comma then (
      advance st;
      loop (item :: acc))
    else List.rev (item :: acc)
  in
  loop []

let parse_remove_item st =
  let lhs = parse_postfix st in
  match lhs with
  | Has_labels (e, ls) -> Rem_labels (e, ls)
  | Prop (e, k) -> Rem_prop (e, k)
  | _ -> fail st "malformed REMOVE item: expected e.key or e:Label"

let parse_projection st ~with_where =
  let proj_distinct = eat_kw st "DISTINCT" in
  let proj_star, proj_items =
    if cur_kind st = Token.Star then (
      advance st;
      if cur_kind st = Token.Comma then (
        advance st;
        let rec items acc =
          let item_expr = parse_expr st in
          let item_alias =
            if eat_kw st "AS" then Some (expect_ident st) else None
          in
          let item = { item_expr; item_alias } in
          if cur_kind st = Token.Comma then (
            advance st;
            items (item :: acc))
          else List.rev (item :: acc)
        in
        (true, items []))
      else (true, []))
    else
      let rec items acc =
        let item_expr = parse_expr st in
        let item_alias =
          if eat_kw st "AS" then Some (expect_ident st) else None
        in
        let item = { item_expr; item_alias } in
        if cur_kind st = Token.Comma then (
          advance st;
          items (item :: acc))
        else List.rev (item :: acc)
      in
      (false, items [])
  in
  let proj_order =
    if at_kw st "ORDER" then (
      advance st;
      expect_kw st "BY";
      let rec sorts acc =
        let sort_expr = parse_expr st in
        let sort_ascending =
          if at_kw st "DESC" || at_kw st "DESCENDING" then (
            advance st;
            false)
          else if at_kw st "ASC" || at_kw st "ASCENDING" then (
            advance st;
            true)
          else true
        in
        let s = { sort_expr; sort_ascending } in
        if cur_kind st = Token.Comma then (
          advance st;
          sorts (s :: acc))
        else List.rev (s :: acc)
      in
      sorts [])
    else []
  in
  let proj_skip = if eat_kw st "SKIP" then Some (parse_expr st) else None in
  let proj_limit = if eat_kw st "LIMIT" then Some (parse_expr st) else None in
  let proj_where =
    if with_where && eat_kw st "WHERE" then Some (parse_expr st) else None
  in
  { proj_distinct; proj_star; proj_items; proj_order; proj_skip; proj_limit;
    proj_where }

let merge_mode_of_word st =
  match cur_kind st with
  | Token.Ident s when peek_kind st 1 <> Token.Eq -> (
      match String.uppercase_ascii s with
      | "ALL" ->
          advance st;
          Merge_all
      | "SAME" ->
          advance st;
          Merge_same
      | "GROUPING" ->
          advance st;
          Merge_grouping
      | "WEAK" ->
          advance st;
          Merge_weak_collapse
      | "COLLAPSE" ->
          advance st;
          Merge_collapse
      | _ -> Merge_legacy)
  | _ -> Merge_legacy

let rec parse_clause st : clause =
  if at_kw st "OPTIONAL" then (
    advance st;
    expect_kw st "MATCH";
    parse_match st ~optional:true)
  else if eat_kw st "MATCH" then parse_match st ~optional:false
  else if eat_kw st "UNWIND" then (
    let source = parse_expr st in
    expect_kw st "AS";
    let alias = expect_ident st in
    Unwind { source; alias })
  else if eat_kw st "WITH" then With (parse_projection st ~with_where:true)
  else if eat_kw st "RETURN" then Return (parse_projection st ~with_where:false)
  else if eat_kw st "CREATE" then Create (parse_pattern_list st)
  else if eat_kw st "SET" then Set (parse_set_items st)
  else if eat_kw st "REMOVE" then (
    let rec loop acc =
      let item = parse_remove_item st in
      if cur_kind st = Token.Comma then (
        advance st;
        loop (item :: acc))
      else List.rev (item :: acc)
    in
    Remove (loop []))
  else if at_kw st "DETACH" then (
    advance st;
    expect_kw st "DELETE";
    parse_delete st ~detach:true)
  else if eat_kw st "DELETE" then parse_delete st ~detach:false
  else if eat_kw st "MERGE" then parse_merge st
  else if eat_kw st "FOREACH" then parse_foreach st
  else fail st "expected a clause but found %s" (Token.describe (cur_kind st))

and parse_match st ~optional =
  let patterns = parse_pattern_list st in
  let where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
  Match { optional; patterns; where }

and parse_delete st ~detach =
  let rec loop acc =
    let e = parse_expr st in
    if cur_kind st = Token.Comma then (
      advance st;
      loop (e :: acc))
    else List.rev (e :: acc)
  in
  Delete { detach; targets = loop [] }

and parse_merge st =
  let mode = merge_mode_of_word st in
  let patterns = parse_pattern_list st in
  let rec subclauses on_create on_match =
    if at_kw st "ON" then (
      advance st;
      if eat_kw st "CREATE" then (
        expect_kw st "SET";
        let items = parse_set_items st in
        subclauses (on_create @ items) on_match)
      else if eat_kw st "MATCH" then (
        expect_kw st "SET";
        let items = parse_set_items st in
        subclauses on_create (on_match @ items))
      else fail st "expected CREATE or MATCH after ON")
    else (on_create, on_match)
  in
  let on_create, on_match = subclauses [] [] in
  Merge { mode; patterns; on_create; on_match }

and parse_foreach st =
  expect st Token.Lparen;
  let fe_var = expect_ident st in
  expect_kw st "IN";
  let fe_source = parse_expr st in
  expect st Token.Pipe;
  let rec body acc =
    if cur_kind st = Token.Rparen then List.rev acc
    else body (parse_clause st :: acc)
  in
  let fe_body = body [] in
  expect st Token.Rparen;
  Foreach { fe_var; fe_source; fe_body }

(* ------------------------------------------------------------------ *)
(* Queries and statements                                             *)
(* ------------------------------------------------------------------ *)

let at_clause_start st =
  List.exists (at_kw st)
    [ "MATCH"; "OPTIONAL"; "UNWIND"; "WITH"; "RETURN"; "CREATE"; "SET";
      "REMOVE"; "DELETE"; "DETACH"; "MERGE"; "FOREACH" ]

let rec parse_query st : query =
  let rec clauses acc =
    if at_clause_start st then clauses (parse_clause st :: acc)
    else List.rev acc
  in
  let cs = clauses [] in
  if cs = [] then fail st "expected a query";
  if at_kw st "UNION" then (
    advance st;
    let all = eat_kw st "ALL" in
    let q' = parse_query st in
    { clauses = cs; union = Some (all, q') })
  else { clauses = cs; union = None }

let parse_statement_end st =
  match cur_kind st with
  | Token.Semi ->
      advance st;
      true
  | Token.Eof -> false
  | k -> fail st "unexpected %s after query" (Token.describe k)

(** [parse_string src] parses one query (a trailing [;] is allowed). *)
let parse_string src : (query, error) result =
  match Lexer.tokenize src with
  | Error { Lexer.message; line; col } -> Error { message; line; col }
  | Ok toks -> (
      let st = make_state toks in
      try
        let q = parse_query st in
        let _ = parse_statement_end st in
        if cur_kind st <> Token.Eof then
          fail st "unexpected %s after query" (Token.describe (cur_kind st));
        Ok q
      with Parse_error e -> Error e)

(** [parse_program src] parses a [;]-separated sequence of queries. *)
let parse_program src : (query list, error) result =
  match Lexer.tokenize src with
  | Error { Lexer.message; line; col } -> Error { message; line; col }
  | Ok toks -> (
      let st = make_state toks in
      try
        let rec loop acc =
          if cur_kind st = Token.Eof then List.rev acc
          else if cur_kind st = Token.Semi then (
            advance st;
            loop acc)
          else
            let q = parse_query st in
            let _ = parse_statement_end st in
            loop (q :: acc)
        in
        Ok (loop [])
      with Parse_error e -> Error e)

(** Statement prefix: [EXPLAIN] renders the execution plan without
    running the statement; [PROFILE] runs it and reports per-clause row
    counts and wall-time alongside the plan. *)
type prefix = Plain | Explain | Profile

(** [parse_statement_params src] parses one statement, recognising an
    optional [EXPLAIN] / [PROFILE] prefix before the query proper, and
    lists the [$name] parameters it references, each with the source
    position (line, column) of its first occurrence, in first-occurrence
    order. *)
let parse_statement_params src :
    (prefix * query * (string * (int * int)) list, error) result =
  match Lexer.tokenize src with
  | Error { Lexer.message; line; col } -> Error { message; line; col }
  | Ok toks -> (
      let st = make_state toks in
      try
        let prefix =
          if eat_kw st "EXPLAIN" then Explain
          else if eat_kw st "PROFILE" then Profile
          else Plain
        in
        let q = parse_query st in
        let _ = parse_statement_end st in
        if cur_kind st <> Token.Eof then
          fail st "unexpected %s after query" (Token.describe (cur_kind st));
        let params =
          List.fold_left
            (fun acc (name, pos) ->
              if List.mem_assoc name acc then acc else (name, pos) :: acc)
            []
            (List.rev st.params)
        in
        Ok (prefix, q, List.rev params)
      with Parse_error e -> Error e)

(** [parse_statements src] parses a [;]-separated sequence of
    statements, recognising the [EXPLAIN] / [PROFILE] prefix on each
    (the script-file counterpart of {!parse_statement_params}). *)
let parse_statements src : ((prefix * query) list, error) result =
  match Lexer.tokenize src with
  | Error { Lexer.message; line; col } -> Error { message; line; col }
  | Ok toks -> (
      let st = make_state toks in
      try
        let rec loop acc =
          if cur_kind st = Token.Eof then List.rev acc
          else if cur_kind st = Token.Semi then (
            advance st;
            loop acc)
          else
            let prefix =
              if eat_kw st "EXPLAIN" then Explain
              else if eat_kw st "PROFILE" then Profile
              else Plain
            in
            let q = parse_query st in
            let _ = parse_statement_end st in
            loop ((prefix, q) :: acc)
        in
        Ok (loop [])
      with Parse_error e -> Error e)

(** [parse_expr_string src] parses a standalone expression (tests). *)
let parse_expr_string src : (expr, error) result =
  match Lexer.tokenize src with
  | Error { Lexer.message; line; col } -> Error { message; line; col }
  | Ok toks -> (
      let st = make_state toks in
      try
        let e = parse_expr st in
        if cur_kind st <> Token.Eof then
          fail st "unexpected %s after expression"
            (Token.describe (cur_kind st));
        Ok e
      with Parse_error e -> Error e)
