(** Driving tables: bags of consistent records.

    A table is a multiset of records over a fixed column set; the row list
    is the bag (duplicates matter).  Row order is semantically irrelevant
    in Cypher — the paper's point is precisely that legacy updates leak
    it — so this module also provides explicit reorderings used to
    exhibit that leakage. *)

open Cypher_util.Maps
open Cypher_graph

type t = { columns : string list; rows : Record.t list }

(** The unit table T(): one empty record, no columns — the input to every
    statement (Section 8.1). *)
let unit = { columns = []; rows = [ Record.empty ] }

let columns t = t.columns
let rows t = t.rows
let row_count t = List.length t.rows
let is_empty t = t.rows = []

let dedup_columns columns =
  (* set-based membership, so a wide column list stays cheap *)
  let rec loop seen acc = function
    | [] -> List.rev acc
    | c :: rest ->
        if Sset.mem c seen then loop seen acc rest
        else loop (Sset.add c seen) (c :: acc) rest
  in
  loop Sset.empty [] columns

(** [make columns rows] builds a table, padding every record to exactly
    [columns] (missing bindings become null, extra bindings are dropped)
    so the consistency invariant holds.  Column order is preserved
    (first occurrence wins on duplicates).  The target layout is
    compiled once per call and shared by every re-laid-out row. *)
let make columns rows =
  let columns = dedup_columns columns in
  { columns; rows = List.map (Record.project (Slots.of_names columns)) rows }

(** [make_rev columns rows_rev] is [make columns (List.rev rows_rev)] in
    one traversal: the reversal and the consistency projection share a
    single [List.rev_map] pass (projection is pure, so evaluation order
    is unobservable).  For producers that naturally accumulate rows in
    reverse — the matcher's fold — this avoids walking and re-consing a
    large row list twice. *)
let make_rev columns rows_rev =
  let columns = dedup_columns columns in
  let project = Record.project (Slots.of_names columns) in
  { columns; rows = List.rev_map project rows_rev }

let map f t = { t with rows = List.map f t.rows }

(** [concat_map columns f t] expands every row into several rows; the new
    column set must be supplied since expansion may bind new variables.
    A single-row table (every first MATCH runs on one) takes [f row]
    directly, skipping [List.concat_map]'s rev_append/rev round trip
    over what may be a very large expansion. *)
let concat_map columns f t =
  make columns
    (match t.rows with
    | [ row ] -> f row
    | rows -> List.concat_map f rows)

let filter p t = { t with rows = List.filter p t.rows }

let fold f t acc = List.fold_left (fun acc r -> f r acc) acc t.rows

(** Bag union ⊎: duplicates add up; the column sets are unified with null
    padding (used by UNION ALL and by MERGE's Tmatch ⊎ Tcreate). *)
let bag_union t1 t2 =
  let columns = dedup_columns (t1.columns @ t2.columns) in
  make columns (t1.rows @ t2.rows)

module Rset = Set.Make (struct
  type t = Record.t

  let compare = Record.compare
end)

(** Set union: bag union followed by duplicate elimination (UNION).
    First-occurrence order of rows is preserved; membership is tracked
    in a balanced set keyed by the record total order, so UNION over an
    n-row table costs O(n log n) rather than O(n²). *)
let distinct t =
  let rec dedup seen acc = function
    | [] -> List.rev acc
    | r :: rest ->
        if Rset.mem r seen then dedup seen acc rest
        else dedup (Rset.add r seen) (r :: acc) rest
  in
  { t with rows = dedup Rset.empty [] t.rows }

let union t1 t2 = distinct (bag_union t1 t2)

(** [project names t] is the projection π_names(t) (bag semantics: row
    count is preserved). *)
let project names t = make names t.rows

let skip n t = { t with rows = Cypher_util.Listx.drop n t.rows }
let limit n t = { t with rows = Cypher_util.Listx.take n t.rows }

(** Reorderings used by the order-dependence experiments (E6, E7). *)
let reverse t = { t with rows = List.rev t.rows }

let permute_seed seed t =
  { t with rows = Cypher_util.Listx.permutation_of_seed seed t.rows }

let equal_as_bags t1 t2 =
  List.sort Record.compare t1.rows = List.sort Record.compare t2.rows
  && t1.columns = t2.columns

let pp ppf t =
  Fmt.pf ppf "@[<v>| %a |" Fmt.(list ~sep:(any " | ") string) t.columns;
  List.iter
    (fun r ->
      Fmt.pf ppf "@,| %a |"
        Fmt.(list ~sep:(any " | ") Value.pp)
        (List.map (Record.find r) t.columns))
    t.rows;
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t
