(** Expression semantics [[e]]G,u (Section 8.1).

    Evaluation is pure: it reads the graph and the record (assignment)
    in the context and produces a value.  Predicates follow Cypher's
    ternary logic; {!truth} converts a value to {!Cypher_graph.Tri.t}. *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_ast.Ast

let error = Ctx.error

(** Truth value of an arbitrary value in predicate position. *)
let truth : Value.t -> Tri.t = function
  | Value.Bool true -> Tri.True
  | Value.Bool false -> Tri.False
  | Value.Null -> Tri.Unknown
  | v -> error "expected a boolean predicate, got %s" (Value.to_string v)

let of_truth : Tri.t -> Value.t = function
  | Tri.True -> Value.Bool true
  | Tri.False -> Value.Bool false
  | Tri.Unknown -> Value.Null

let lit_value = function
  | L_null -> Value.Null
  | L_bool b -> Value.Bool b
  | L_int i -> Value.Int i
  | L_float f -> Value.Float f
  | L_string s -> Value.String s

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                         *)
(* ------------------------------------------------------------------ *)

let arith op a b =
  match (op, a, b) with
  | _, Value.Null, _ | _, _, Value.Null -> Value.Null
  | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Add, Value.Float x, Value.Float y -> Value.Float (x +. y)
  | Add, Value.Int x, Value.Float y -> Value.Float (float_of_int x +. y)
  | Add, Value.Float x, Value.Int y -> Value.Float (x +. float_of_int y)
  | Add, Value.String x, (Value.String _ | Value.Int _ | Value.Float _ | Value.Bool _) ->
      Value.String (x ^ Functions.display_string b)
  | Add, (Value.Int _ | Value.Float _ | Value.Bool _), Value.String y ->
      Value.String (Functions.display_string a ^ y)
  | Add, Value.List x, Value.List y -> Value.List (x @ y)
  | Add, Value.List x, y -> Value.List (x @ [ y ])
  | Add, x, Value.List y -> Value.List (x :: y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Sub, Value.Float x, Value.Float y -> Value.Float (x -. y)
  | Sub, Value.Int x, Value.Float y -> Value.Float (float_of_int x -. y)
  | Sub, Value.Float x, Value.Int y -> Value.Float (x -. float_of_int y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Mul, Value.Float x, Value.Float y -> Value.Float (x *. y)
  | Mul, Value.Int x, Value.Float y -> Value.Float (float_of_int x *. y)
  | Mul, Value.Float x, Value.Int y -> Value.Float (x *. float_of_int y)
  | Div, Value.Int _, Value.Int 0 -> error "division by zero"
  | Div, Value.Int x, Value.Int y -> Value.Int (x / y)
  | Div, Value.Float x, Value.Float y -> Value.Float (x /. y)
  | Div, Value.Int x, Value.Float y -> Value.Float (float_of_int x /. y)
  | Div, Value.Float x, Value.Int y -> Value.Float (x /. float_of_int y)
  | Mod, Value.Int _, Value.Int 0 -> error "modulo by zero"
  | Mod, Value.Int x, Value.Int y -> Value.Int (x mod y)
  | Mod, Value.Float x, Value.Float y -> Value.Float (Float.rem x y)
  | Mod, Value.Int x, Value.Float y -> Value.Float (Float.rem (float_of_int x) y)
  | Mod, Value.Float x, Value.Int y -> Value.Float (Float.rem x (float_of_int y))
  | Pow, x, y -> (
      let f = function
        | Value.Int i -> float_of_int i
        | Value.Float f -> f
        | v -> error "cannot exponentiate %s" (Value.to_string v)
      in
      match (x, y) with
      | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
          Value.Float (Float.pow (f x) (f y))
      | _ -> error "cannot exponentiate non-numbers")
  | op, a, b ->
      error "type error: %s %s %s"
        (Value.to_string a)
        (match op with
        | Add -> "+"
        | Sub -> "-"
        | Mul -> "*"
        | Div -> "/"
        | Mod -> "%"
        | Pow -> "^")
        (Value.to_string b)

(* ------------------------------------------------------------------ *)
(* Main recursion                                                     *)
(* ------------------------------------------------------------------ *)

(* a map value is not a property map: it may hold [null] *)
let map_get m k = match Smap.find_opt k m with Some v -> v | None -> Value.Null

let rec eval (ctx : Ctx.t) (e : expr) : Value.t =
  match e with
  | Lit l -> lit_value l
  | Var v -> (
      match Cypher_table.Record.find_opt ctx.row v with
      | Some x -> x
      | None -> error "variable `%s` is not defined" v)
  | Param p -> (
      match Smap.find_opt p ctx.params with
      | Some x -> x
      | None -> error "parameter $%s was not supplied" p)
  | Prop (e, key) -> (
      match eval ctx e with
      | Value.Null -> Value.Null
      | Value.Node id -> Props.get (Graph.node_props_of ctx.graph id) key
      | Value.Rel id -> Props.get (Graph.rel_props_of ctx.graph id) key
      | Value.Map m -> map_get m key
      | v -> error "cannot access property .%s of %s" key (Value.to_string v))
  | Has_labels (e, labels) -> (
      match eval ctx e with
      | Value.Null -> Value.Null
      | Value.Node id ->
          Value.Bool (List.for_all (Graph.has_label ctx.graph id) labels)
      | v -> error "label predicate on non-node %s" (Value.to_string v))
  | Not e -> of_truth (Tri.neg (truth (eval ctx e)))
  | And (a, b) -> of_truth (Tri.conj (truth (eval ctx a)) (truth (eval ctx b)))
  | Or (a, b) -> of_truth (Tri.disj (truth (eval ctx a)) (truth (eval ctx b)))
  | Xor (a, b) -> of_truth (Tri.xor (truth (eval ctx a)) (truth (eval ctx b)))
  | Cmp (op, a, b) -> (
      let va = eval ctx a and vb = eval ctx b in
      match op with
      | Eq -> of_truth (Value.equal_tri va vb)
      | Neq -> of_truth (Tri.neg (Value.equal_tri va vb))
      | Lt | Le | Gt | Ge -> (
          match Value.compare_tri va vb with
          | Error () -> Value.Null
          | Ok c ->
              Value.Bool
                (match op with
                | Lt -> c < 0
                | Le -> c <= 0
                | Gt -> c > 0
                | Ge -> c >= 0
                | Eq | Neq -> assert false)))
  | Bin (op, a, b) -> arith op (eval ctx a) (eval ctx b)
  | Neg e -> (
      match eval ctx e with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> error "cannot negate %s" (Value.to_string v))
  | Is_null e -> Value.Bool (Value.is_null (eval ctx e))
  | Is_not_null e -> Value.Bool (not (Value.is_null (eval ctx e)))
  | List_lit es -> Value.List (List.map (eval ctx) es)
  | Map_lit kvs ->
      Value.Map
        (List.fold_left
           (fun m (k, e) -> Smap.add k (eval ctx e) m)
           Smap.empty kvs)
  | Index (e, i) -> (
      match (eval ctx e, eval ctx i) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.List l, Value.Int i ->
          let n = List.length l in
          let i = if i < 0 then n + i else i in
          if i < 0 || i >= n then Value.Null else List.nth l i
      | Value.Map m, Value.String k -> map_get m k
      | (Value.Node id), Value.String k ->
          Props.get (Graph.node_props_of ctx.graph id) k
      | (Value.Rel id), Value.String k ->
          Props.get (Graph.rel_props_of ctx.graph id) k
      | v, i ->
          error "cannot index %s with %s" (Value.to_string v)
            (Value.to_string i))
  | Slice (e, lo, hi) -> (
      match eval ctx e with
      | Value.Null -> Value.Null
      | Value.List l ->
          let n = List.length l in
          let resolve default = function
            | None -> default
            | Some e -> (
                match eval ctx e with
                | Value.Int i -> if i < 0 then n + i else i
                | Value.Null -> default
                | v -> error "slice bound must be an integer, got %s"
                         (Value.to_string v))
          in
          let lo = max 0 (resolve 0 lo) and hi = min n (resolve n hi) in
          if hi <= lo then Value.List []
          else
            Value.List Cypher_util.Listx.(take (hi - lo) (drop lo l))
      | v -> error "cannot slice %s" (Value.to_string v))
  | Str_op (op, a, b) -> (
      match (eval ctx a, eval ctx b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.String x, Value.String y ->
          let contains_sub s sub =
            let n = String.length s and m = String.length sub in
            let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
            m = 0 || loop 0
          in
          Value.Bool
            (match op with
            | Starts_with ->
                String.length y <= String.length x
                && String.sub x 0 (String.length y) = y
            | Ends_with ->
                String.length y <= String.length x
                && String.sub x (String.length x - String.length y)
                     (String.length y)
                   = y
            | Contains -> contains_sub x y)
      | v, w ->
          error "string predicate on %s and %s" (Value.to_string v)
            (Value.to_string w))
  | In_list (a, b) -> (
      let va = eval ctx a in
      match eval ctx b with
      | Value.Null -> Value.Null
      | Value.List l ->
          let combine acc x = Tri.disj acc (Value.equal_tri va x) in
          of_truth (List.fold_left combine Tri.False l)
      | v -> error "IN requires a list, got %s" (Value.to_string v))
  | Fn (name, args) -> Functions.apply ctx name (List.map (eval ctx) args)
  | Agg _ -> (
      (* aggregates are folded by the projection; here they only read
         the group's finalised value *)
      match ctx.aggregate with
      | Some value_of -> value_of e
      | None -> error "aggregate function used outside RETURN/WITH")
  | Case { case_operand; case_whens; case_default } -> (
      let default () =
        match case_default with Some e -> eval ctx e | None -> Value.Null
      in
      match case_operand with
      | Some op_e ->
          let v = eval ctx op_e in
          let rec try_whens = function
            | [] -> default ()
            | (w, t) :: rest ->
                if Value.equal_tri v (eval ctx w) = Tri.True then eval ctx t
                else try_whens rest
          in
          try_whens case_whens
      | None ->
          let rec try_whens = function
            | [] -> default ()
            | (w, t) :: rest ->
                if truth (eval ctx w) = Tri.True then eval ctx t
                else try_whens rest
          in
          try_whens case_whens)
  | List_comp { comp_var; comp_source; comp_where; comp_body } -> (
      match eval ctx comp_source with
      | Value.Null -> Value.Null
      | Value.List l ->
          let per_elem x =
            let ctx' =
              { ctx with row = Cypher_table.Record.bind ctx.row comp_var x }
            in
            let keep =
              match comp_where with
              | None -> true
              | Some w -> truth (eval ctx' w) = Tri.True
            in
            if not keep then None
            else
              Some
                (match comp_body with None -> x | Some b -> eval ctx' b)
          in
          Value.List (List.filter_map per_elem l)
      | v -> error "list comprehension requires a list, got %s"
               (Value.to_string v))
  | Quantifier { q_kind; q_var; q_source; q_pred } -> (
      match eval ctx q_source with
      | Value.Null -> Value.Null
      | Value.List l ->
          let pred x =
            truth
              (eval
                 { ctx with row = Cypher_table.Record.bind ctx.row q_var x }
                 q_pred)
          in
          let ts = List.map pred l in
          let any = List.fold_left Tri.disj Tri.False ts in
          let all = List.fold_left Tri.conj Tri.True ts in
          of_truth
            (match q_kind with
            | Q_all -> all
            | Q_any -> any
            | Q_none -> Tri.neg any
            | Q_single ->
                (* exactly one true: more than one definite true is
                   false; unknowns make the count uncertain *)
                let trues =
                  List.length (List.filter (fun t -> t = Tri.True) ts)
                in
                let unknowns =
                  List.length (List.filter (fun t -> t = Tri.Unknown) ts)
                in
                if trues > 1 then Tri.False
                else if unknowns > 0 then Tri.Unknown
                else Tri.of_bool (trues = 1))
      | v -> error "quantifier requires a list, got %s" (Value.to_string v))
  | Reduce { red_acc; red_init; red_var; red_source; red_body } -> (
      match eval ctx red_source with
      | Value.Null -> Value.Null
      | Value.List l ->
          List.fold_left
            (fun acc x ->
              let row =
                Cypher_table.Record.bind
                  (Cypher_table.Record.bind ctx.row red_acc acc)
                  red_var x
              in
              eval { ctx with row } red_body)
            (eval ctx red_init) l
      | v -> error "reduce requires a list, got %s" (Value.to_string v))
  | Pattern_pred patterns -> (
      match ctx.pattern_oracle with
      | Some oracle -> Value.Bool (oracle ctx patterns <> [])
      | None ->
          error
            "pattern predicates are not available in this evaluation context")
  | Pattern_comp { pc_pattern; pc_where; pc_body } -> (
      match ctx.pattern_oracle with
      | Some oracle ->
          let embeddings = oracle ctx [ pc_pattern ] in
          let per_row row =
            let ctx' = { ctx with row } in
            let keep =
              match pc_where with
              | None -> true
              | Some w -> truth (eval ctx' w) = Tri.True
            in
            if keep then Some (eval ctx' pc_body) else None
          in
          Value.List (List.filter_map per_row embeddings)
      | None ->
          error
            "pattern comprehensions are not available in this evaluation \
             context")
  | Shortest_path { sp_all; sp_pattern } -> (
      match ctx.shortest_oracle with
      | Some oracle -> oracle ctx ~all:sp_all sp_pattern
      | None ->
          error "shortestPath is not available in this evaluation context")

(** [eval_truth ctx e] is the predicate value of [e] (for WHERE). *)
let eval_truth ctx e = truth (eval ctx e)

(** Evaluates the property map of an update pattern to a {!Props.t};
    null values are dropped (creating a property as null stores nothing —
    the Example 5 discipline). *)
let eval_props ctx (kvs : (string * expr) list) : Props.t =
  Props.of_list (List.map (fun (k, e) -> (k, eval ctx e)) kvs)
