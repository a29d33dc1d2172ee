(** Semantics of RETURN and WITH: projection, aliasing, aggregation with
    implicit grouping, DISTINCT, ORDER BY, SKIP and LIMIT, and the
    WITH ... WHERE filter. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval
module Pretty = Cypher_ast.Pretty

(* grouping keys, hashed and compared under the total value order *)
module Keytbl = Hashtbl.Make (struct
  type t = Value.t

  let equal a b = Value.compare_total a b = 0
  let hash = Value.hash_total
end)

(** Output column name of a projection item: the alias, the variable
    name, or the printed expression. *)
let item_name (it : proj_item) =
  match it.item_alias with
  | Some a -> a
  | None -> (
      match it.item_expr with
      | Var v -> v
      | Prop (Var v, k) -> v ^ "." ^ k
      | e -> Pretty.expr_to_string e)

(** [count_star_alias proj] is the output column name when [proj] is a
    bare [count( * )] projection — a single count-star item with no
    DISTINCT, [*], ORDER BY, SKIP, LIMIT or WHERE — and [None]
    otherwise.  Such a projection over a MATCH is fused by the engine
    into a counting traversal that materialises no rows
    ({!Cypher_matcher.Matcher.count_patterns}). *)
let count_star_alias (proj : projection) : string option =
  match proj with
  | {
   proj_distinct = false;
   proj_star = false;
   proj_items = [ ({ item_expr = Agg (Count, false, None); _ } as it) ];
   proj_order = [];
   proj_skip = None;
   proj_limit = None;
   proj_where = None;
  } ->
      Some (item_name it)
  | _ -> None

(** Expands [*] to one item per input column (sorted), then appends the
    explicit items. *)
let effective_items (t : Table.t) (proj : projection) : proj_item list =
  let star_items =
    if proj.proj_star then
      List.map
        (fun c -> { item_expr = Var c; item_alias = Some c })
        (Table.columns t)
    else []
  in
  star_items @ proj.proj_items

(** One evaluated output row, with enough context kept around to
    evaluate ORDER BY expressions (which may mention input variables and
    aggregates). *)
type out_row = {
  projected : Record.t;
  source : Record.t;  (** representative input record *)
  group : Record.t list option;  (** aggregation group, when grouping *)
}

let eval_sort_key config g (r : out_row) e =
  let merged =
    List.fold_left
      (fun acc (k, v) -> Record.bind acc k v)
      r.source
      (Record.bindings r.projected)
  in
  let ctx = Runtime.ctx config g merged in
  let ctx = match r.group with None -> ctx | Some rows -> Ctx.with_group ctx rows in
  Eval.eval ctx e

let eval_count config g e =
  let ctx = Runtime.ctx config g Record.empty in
  match Eval.eval ctx e with
  | Value.Int n -> max 0 n
  | v ->
      Errors.eval_error "SKIP/LIMIT requires a non-negative integer, got %s"
        (Value.to_string v)

let run config (g, t) (proj : projection) =
  let items = effective_items t proj in
  let names = List.map item_name items in
  (match
     List.find_opt
       (fun n -> List.length (List.filter (String.equal n) names) > 1)
       names
   with
  | Some n -> Errors.eval_error "duplicate column name `%s` in projection" n
  | None -> ());
  let has_agg = List.exists (fun it -> expr_has_agg it.item_expr) items in
  let parallelism = Runtime.parallelism_of config in
  (* Builds one projected row by evaluating the items left to right.
     The output layout is compiled once ([names] is duplicate-free —
     checked above, so item positions and slots align) and each row is a
     single array. *)
  let mk_projected =
    let tab = Slots.of_names names in
    let width = List.length names in
    fun ctx ->
      let cells = Array.make width Value.Null in
      List.iteri (fun i it -> cells.(i) <- Eval.eval ctx it.item_expr) items;
      Record.of_slots tab cells
  in
  let out_rows =
    if not has_agg then
      (* per-row expression evaluation reads only the immutable input
         graph: fan it out with ordered gather (byte-identical to the
         serial map) *)
      Cypher_util.Pool.map_chunks ~parallelism
        (fun row ->
          let ctx = Runtime.ctx config g row in
          { projected = mk_projected ctx; source = row; group = None })
        (Table.rows t)
    else begin
      (* implicit grouping: non-aggregate items are the grouping keys *)
      let key_items = List.filter (fun it -> not (expr_has_agg it.item_expr)) items in
      let key_of row =
        let ctx = Runtime.ctx config g row in
        Value.List (List.map (fun it -> Eval.eval ctx it.item_expr) key_items)
      in
      let groups =
        if key_items = [] then
          (* one global group, present even when the table is empty *)
          [ Table.rows t ]
        else
          (* keys are equal when the total order says so — the equality
             DISTINCT uses; groups come out in first-occurrence order *)
          let tbl = Keytbl.create 64 and order = ref [] in
          List.iter
            (fun row ->
              let key = key_of row in
              match Keytbl.find_opt tbl key with
              | Some rows -> rows := row :: !rows
              | None ->
                  let rows = ref [ row ] in
                  Keytbl.add tbl key rows;
                  order := rows :: !order)
            (Table.rows t);
          List.rev_map (fun rows -> List.rev !rows) !order
      in
      List.map
        (fun rows ->
          let source = match rows with r :: _ -> r | [] -> Record.empty in
          let ctx =
            Ctx.with_group (Runtime.ctx config g source) rows
          in
          { projected = mk_projected ctx; source; group = Some rows })
        groups
    end
  in
  (* DISTINCT: first-occurrence order, membership in a balanced set
     keyed on the projected record (same O(n log n) discipline as
     Table.distinct) *)
  let out_rows =
    if not proj.proj_distinct then out_rows
    else
      let module Rset = Set.Make (struct
        type t = Record.t

        let compare = Record.compare
      end) in
      let rec dedup seen acc = function
        | [] -> List.rev acc
        | r :: rest ->
            if Rset.mem r.projected seen then dedup seen acc rest
            else dedup (Rset.add r.projected seen) (r :: acc) rest
      in
      dedup Rset.empty [] out_rows
  in
  (* ORDER BY *)
  let out_rows =
    if proj.proj_order = [] then out_rows
    else
      let cmp r1 r2 =
        let rec loop = function
          | [] -> 0
          | s :: rest ->
              let v1 = eval_sort_key config g r1 s.sort_expr in
              let v2 = eval_sort_key config g r2 s.sort_expr in
              let c = Value.compare_total v1 v2 in
              if c <> 0 then if s.sort_ascending then c else -c else loop rest
        in
        loop proj.proj_order
      in
      List.stable_sort cmp out_rows
  in
  (* SKIP / LIMIT *)
  let out_rows =
    match proj.proj_skip with
    | None -> out_rows
    | Some e -> Cypher_util.Listx.drop (eval_count config g e) out_rows
  in
  let out_rows =
    match proj.proj_limit with
    | None -> out_rows
    | Some e -> Cypher_util.Listx.take (eval_count config g e) out_rows
  in
  (* WITH ... WHERE: a pure per-row predicate over the input graph —
     filtered in parallel with ordered gather *)
  let out_rows =
    match proj.proj_where with
    | None -> out_rows
    | Some e ->
        Cypher_util.Pool.filter_chunks ~parallelism
          (fun r ->
            let ctx = Runtime.ctx config g r.projected in
            Cypher_graph.Tri.to_bool_where (Eval.eval_truth ctx e))
          out_rows
  in
  (g, Table.make names (List.map (fun r -> r.projected) out_rows))
