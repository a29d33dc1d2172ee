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

(* the value set of a DISTINCT aggregate, under the same order *)
module Vset = Set.Make (struct
  type t = Value.t

  let compare = Value.compare_total
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

(** Expands [*] to one item per input column (sorted), then appends the
    explicit items. *)
let effective_items columns (proj : projection) : proj_item list =
  let star_items =
    if proj.proj_star then
      List.map (fun c -> { item_expr = Var c; item_alias = Some c }) columns
    else []
  in
  star_items @ proj.proj_items

(** The items over input [columns] and their output names, which must
    be distinct. *)
let items_and_names columns proj =
  let items = effective_items columns proj in
  let names = List.map item_name items in
  (match
     List.find_opt
       (fun n -> List.length (List.filter (String.equal n) names) > 1)
       names
   with
  | Some n -> Errors.eval_error "duplicate column name `%s` in projection" n
  | None -> ());
  (items, names)

(* Builds one projected row by evaluating the items left to right.  The
   output layout is compiled once ([names] is duplicate-free, so item
   positions and slots align) and each row is a single array. *)
let projector items names =
  let tab = Slots.of_names names in
  let width = List.length names in
  fun ctx ->
    let cells = Array.make width Value.Null in
    List.iteri (fun i it -> cells.(i) <- Eval.eval ctx it.item_expr) items;
    Record.of_slots tab cells

(** One evaluated output row, with enough context kept around to
    evaluate ORDER BY expressions (which may mention input variables and
    aggregates). *)
type out_row = {
  projected : Record.t;
  source : Record.t;  (** representative input record *)
  aggregate : (expr -> Value.t) option;
      (** the group's finalised aggregates, when grouping *)
}

let eval_count base e =
  match Eval.eval base e with
  | Value.Int n -> max 0 n
  | v ->
      Errors.eval_error "SKIP/LIMIT requires a non-negative integer, got %s"
        (Value.to_string v)

(* ORDER BY: each row's sort keys are evaluated lazily and at most once
   — a row that is never compared evaluates none, and a later key only
   on a tie of the earlier ones — over the input row merged with the
   projected columns. *)
let sort base order out_rows =
  let order = Array.of_list order in
  let keyed r =
    let ctx =
      lazy
        (let merged =
           List.fold_left
             (fun acc (k, v) -> Record.bind acc k v)
             r.source
             (Record.bindings r.projected)
         in
         let ctx = Ctx.with_row base merged in
         match r.aggregate with
         | None -> ctx
         | Some value_of -> Ctx.with_aggregate ctx value_of)
    in
    (r, Array.map (fun s -> lazy (Eval.eval (Lazy.force ctx) s.sort_expr)) order)
  in
  let cmp (_, k1) (_, k2) =
    let rec loop i =
      if i = Array.length order then 0
      else
        let v1 = Lazy.force k1.(i) in
        let v2 = Lazy.force k2.(i) in
        let c = Value.compare_total v1 v2 in
        if c <> 0 then if order.(i).sort_ascending then c else -c
        else loop (i + 1)
    in
    loop 0
  in
  List.map fst (List.stable_sort cmp (List.map keyed out_rows))

(* DISTINCT, ORDER BY, SKIP, LIMIT and WITH ... WHERE over the projected
   rows — shared by the grouping and the row-by-row projection *)
let finish_rows base (g, names) (proj : projection) out_rows =
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
  let out_rows =
    if proj.proj_order = [] then out_rows else sort base proj.proj_order out_rows
  in
  let out_rows =
    match proj.proj_skip with
    | None -> out_rows
    | Some e -> Cypher_util.Listx.drop (eval_count base e) out_rows
  in
  let out_rows =
    match proj.proj_limit with
    | None -> out_rows
    | Some e -> Cypher_util.Listx.take (eval_count base e) out_rows
  in
  (* WITH ... WHERE: a per-row predicate over the input graph *)
  let out_rows =
    match proj.proj_where with
    | None -> out_rows
    | Some e ->
        List.filter
          (fun r ->
            Tri.to_bool_where (Eval.eval_truth (Ctx.with_row base r.projected) e))
          out_rows
  in
  (g, Table.make names (List.map (fun r -> r.projected) out_rows))

(* ------------------------------------------------------------------ *)
(* Aggregation by accumulators                                        *)
(* ------------------------------------------------------------------ *)

(** One aggregate slot: every structurally equal aggregate node of the
    projection's items and ORDER BY shares it. *)
type spec = { kind : agg_kind; distinct : bool; arg : expr option }

(** A group's running state for one slot.  [n] counts the rows
    ([count( * )]) or the non-null values folded in; [total] is the
    running [sum]/[avg] total (from [Int 0], by [arith Add] in row
    order) or the first [min]/[max] extreme; [values] the [collect]ed
    values, newest first; [seen] a DISTINCT aggregate's value set, folded
    in sorted order only when the group is finalised. *)
type acc = {
  mutable n : int;
  mutable total : Value.t;
  mutable values : Value.t list;
  mutable seen : Vset.t;
}

let new_acc () = { n = 0; total = Value.Int 0; values = []; seen = Vset.empty }

let add_value kind acc v =
  (match kind with
  | Count -> ()
  | Sum | Avg -> acc.total <- Eval.arith Add acc.total v
  | Min -> if acc.n = 0 || Value.compare_total v acc.total < 0 then acc.total <- v
  | Max -> if acc.n = 0 || Value.compare_total v acc.total > 0 then acc.total <- v
  | Collect -> acc.values <- v :: acc.values);
  acc.n <- acc.n + 1

let finalize spec acc =
  match spec.arg with
  | None ->
      if spec.kind = Count then Value.Int acc.n
      else Ctx.error "only count may be applied to *"
  | Some _ -> (
      let acc =
        if not spec.distinct then acc
        else
          let sorted = new_acc () in
          Vset.iter (add_value spec.kind sorted) acc.seen;
          sorted
      in
      match spec.kind with
      | Count -> Value.Int acc.n
      | Collect -> Value.List (List.rev acc.values)
      | Sum -> acc.total
      | Avg ->
          if acc.n = 0 then Value.Null
          else
            Eval.arith Div
              (match acc.total with Value.Int i -> Value.Float (float_of_int i) | v -> v)
              (Value.Int acc.n)
      | Min | Max -> if acc.n = 0 then Value.Null else acc.total)

(** A group: its first input row, the source of its non-aggregate
    expressions and ORDER BY keys, and one accumulator per slot. *)
type group = { source : Record.t; accs : acc array }

(** An aggregating projection being folded: rows go in one at a time
    ({!add}), groups stay in first-occurrence order, and nothing of a
    row outlives its fold except a new group's first row. *)
type aggregation = {
  graph : Graph.t;
  base : Ctx.t;
  proj : projection;
  items : proj_item list;
  names : string list;
  keys : expr list;  (** the non-aggregate items: the grouping key *)
  specs : spec array;
  slots : (expr * int) list;  (** every aggregate node, by identity *)
  reads_rows : bool;
  mutable readers : (Ctx.t -> Record.t -> Value.t) option array option;
      (** per slot argument, compiled against the first row's layout *)
  groups : group Keytbl.t;
  mutable order : group list;  (** newest first *)
}

let is_aggregating items = List.exists (fun it -> expr_has_agg it.item_expr) items

let make_aggregation config g (items, names) (proj : projection) =
  (* one slot per structurally distinct aggregate node *)
  let aggs =
    List.concat_map (fun it -> expr_aggs it.item_expr) items
    @ List.concat_map (fun s -> expr_aggs s.sort_expr) proj.proj_order
  in
  let spec_of = function
    | Agg (kind, distinct, arg) -> { kind; distinct; arg }
    | _ -> Ctx.internal "aggregation: expr_aggs returned a non-aggregate"
  in
  let specs =
    List.fold_left
      (fun acc a ->
        let s = spec_of a in
        if List.exists (fun s' -> compare s s' = 0) acc then acc else s :: acc)
      [] aggs
    |> List.rev |> Array.of_list
  in
  let slot a =
    let s = spec_of a in
    Option.get (Array.find_index (fun s' -> compare s s' = 0) specs)
  in
  let keys =
    List.filter_map
      (fun it -> if expr_has_agg it.item_expr then None else Some it.item_expr)
      items
  in
  {
    graph = g;
    base = Runtime.ctx config g Record.empty;
    proj;
    items;
    names;
    keys;
    specs;
    slots = List.map (fun a -> (a, slot a)) aggs;
    (* one global group of count( * )s whose other parts read no
       variable: the rows themselves are never looked at *)
    reads_rows =
      keys <> []
      || Array.exists (fun s -> s.arg <> None) specs
      || List.exists (fun it -> expr_free_vars it.item_expr <> []) items;
    readers = None;
    groups = Keytbl.create 64;
    order = [];
  }

let aggregation config g ~columns (proj : projection) =
  let items, names = items_and_names columns proj in
  if is_aggregating items then Some (make_aggregation config g (items, names) proj)
  else None

let reads_rows agg = agg.reads_rows

let group_of agg key source =
  match Keytbl.find_opt agg.groups key with
  | Some grp -> grp
  | None ->
      let grp = { source; accs = Array.map (fun _ -> new_acc ()) agg.specs } in
      Keytbl.add agg.groups key grp;
      agg.order <- grp :: agg.order;
      grp

(* a bare-variable argument — the common count(x)/collect(x) shape — is
   read by an array probe compiled against the first row's layout, with
   the same error as the Var case of [Eval.eval] *)
let compile_readers agg row0 =
  Array.map
    (fun spec ->
      match spec.arg with
      | None -> None
      | Some (Var v) ->
          let find = Record.compile_find row0 v in
          Some
            (fun _ row ->
              match find row with
              | Some x -> x
              | None -> Ctx.error "variable `%s` is not defined" v)
      | Some e -> Some (fun ctx _ -> Eval.eval ctx e))
    agg.specs

(* the key of the one global group when there are no grouping keys *)
let global_key = Value.List []

(** [add agg row] folds one input row into its group's accumulators. *)
let add agg row =
  let readers =
    match agg.readers with
    | Some r -> r
    | None ->
        let r = compile_readers agg row in
        agg.readers <- Some r;
        r
  in
  let ctx = Ctx.with_row agg.base row in
  let key =
    match agg.keys with
    | [] -> global_key
    | keys -> Value.List (List.map (Eval.eval ctx) keys)
  in
  let grp = group_of agg key row in
  Array.iteri
    (fun i spec ->
      let acc = grp.accs.(i) in
      match readers.(i) with
      | None -> acc.n <- acc.n + 1
      | Some read ->
          let v = read ctx row in
          if Value.is_null v then ()
          else if spec.distinct then acc.seen <- Vset.add v acc.seen
          else add_value spec.kind acc v)
    agg.specs

(** [add_count agg n] folds [n] rows nobody reads into an aggregation
    that does not {!reads_rows}: every slot is a [count( * )]. *)
let add_count agg n =
  let grp = group_of agg global_key Record.empty in
  Array.iter (fun acc -> acc.n <- acc.n + n) grp.accs

(** [finish agg] is the projection's output: each group's items
    evaluated over its first row with every aggregate node replaced by
    its finalised value, then DISTINCT, ORDER BY, SKIP, LIMIT and WHERE.
    Without grouping keys there is exactly one group, even over no
    rows. *)
let finish agg =
  if agg.keys = [] then ignore (group_of agg global_key Record.empty);
  let project = projector agg.items agg.names in
  let out_rows =
    List.map
      (fun grp ->
        let finals =
          Array.mapi (fun i acc -> lazy (finalize agg.specs.(i) acc)) grp.accs
        in
        let value_of e =
          match List.assq_opt e agg.slots with
          | Some i -> Lazy.force finals.(i)
          | None -> Ctx.error "aggregate function used outside RETURN/WITH"
        in
        let ctx = Ctx.with_aggregate (Ctx.with_row agg.base grp.source) value_of in
        { projected = project ctx; source = grp.source; aggregate = Some value_of })
      (List.rev agg.order)
  in
  finish_rows agg.base (agg.graph, agg.names) agg.proj out_rows

let run config (g, t) (proj : projection) =
  let items, names = items_and_names (Table.columns t) proj in
  if is_aggregating items then begin
    let agg = make_aggregation config g (items, names) proj in
    Table.fold (fun row () -> add agg row) t ();
    finish agg
  end
  else
    let base = Runtime.ctx config g Record.empty in
    let project = projector items names in
    let out_rows =
      List.map
        (fun row ->
          { projected = project (Ctx.with_row base row); source = row; aggregate = None })
        (Table.rows t)
    in
    finish_rows base (g, names) proj out_rows
