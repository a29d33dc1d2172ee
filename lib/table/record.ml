(** Records: the rows of driving tables.

    A record is a key–value map from variable names to Cypher values.
    In Cypher the records of a table are *consistent*: they share the same
    set of keys (the table's columns); {!Table} maintains that invariant.

    Physically a record is a flat value array over a compiled {!Slots}
    layout.  Binding an in-layout name is an array copy plus an index
    store; lookup is an index load.  A slot may hold {!Slots.absent}
    (physically unique, compared with [==]) when the variable is not yet
    bound — observationally the name is absent from the map, which is
    distinct from an explicit [Null] binding.  Observable orderings
    (keys, bindings, comparison, printing) follow ascending name order,
    through the layout's sorted index permutation. *)

open Cypher_graph

type t = { tab : Slots.t; cells : Value.t array }

(* the one process-global layout: [Slots.extend] never memoises onto a
   zero-width layout, so binds onto [empty] leave no trace on it *)
let empty : t = { tab = Slots.of_names []; cells = [||] }

let bind (r : t) name v : t =
  let { tab; cells } = r in
  let i = Slots.index tab name in
  if i >= 0 then begin
    let cells = Array.copy cells in
    cells.(i) <- v;
    { tab; cells }
  end
  else
    (* a name outside the layout (evaluator loop variables, pattern
       predicates): extend the layout — memoized, so per-row binds of
       the same variable share one extended table *)
    let tab = Slots.extend tab name in
    let n = Array.length cells in
    let cells' = Array.make (n + 1) v in
    Array.blit cells 0 cells' 0 n;
    { tab; cells = cells' }

let find_opt (r : t) name =
  let i = Slots.index r.tab name in
  if i < 0 then None
  else
    let v = Array.unsafe_get r.cells i in
    if v == Slots.absent then None else Some v

(** [compile_find r0 name] compiles a lookup for [name] against the
    layout of [r0] — a representative of the rows about to be scanned.
    The index is resolved once; every row sharing that layout (physical
    test) is then read by a single array probe.  Rows over any other
    layout fall back to {!find_opt}, so the compiled lookup is sound on
    arbitrary rows. *)
let compile_find (r0 : t) name : t -> Value.t option =
  let tab0 = r0.tab in
  let i = Slots.index tab0 name in
  if i < 0 then fun r -> find_opt r name
  else fun r ->
    if r.tab == tab0 then
      let v = Array.unsafe_get r.cells i in
      if v == Slots.absent then None else Some v
    else find_opt r name

(** [find r name] is the value bound to [name], or [Null] when absent
    (used for consistency padding, e.g. by OPTIONAL MATCH or UNION). *)
let find (r : t) name =
  match find_opt r name with Some v -> v | None -> Value.Null

let mem (r : t) name = find_opt r name <> None

(* ascending name order: the slot layout carries its sorted index
   permutation *)

let keys { tab; cells } =
  let sorted = tab.Slots.sorted in
  let rec go k acc =
    if k < 0 then acc
    else
      let i = Array.unsafe_get sorted k in
      let acc =
        if Array.unsafe_get cells i == Slots.absent then acc
        else Slots.name tab i :: acc
      in
      go (k - 1) acc
  in
  go (Array.length sorted - 1) []

let bindings { tab; cells } =
  let sorted = tab.Slots.sorted in
  let rec go k acc =
    if k < 0 then acc
    else
      let i = Array.unsafe_get sorted k in
      let v = Array.unsafe_get cells i in
      let acc = if v == Slots.absent then acc else (Slots.name tab i, v) :: acc in
      go (k - 1) acc
  in
  go (Array.length sorted - 1) []

(** [of_list l] compiles a layout over the names of [l] once and fills
    it; a repeated name keeps its last binding. *)
let of_list l : t =
  let tab = Slots.of_names (List.map fst l) in
  let cells = Array.make (Slots.width tab) Slots.absent in
  List.iter (fun (k, v) -> cells.(Slots.index tab k) <- v) l;
  { tab; cells }

(** [of_slots tab cells] adopts [cells] as a row over [tab] without
    copying; the caller transfers ownership of the array. *)
let of_slots tab cells : t = { tab; cells }

(** [slots_view r] exposes the layout and cells (shared — callers must
    not write). *)
let slots_view (r : t) = (r.tab, r.cells)

(** [slot_bind r i v] is the conflict-checked bind of slot [i]; see the
    interface.  The empty-slot case allocates only the copied cells and
    the row header — no name resolution happens here. *)
let slot_bind (r : t) i v : t option =
  let cur = r.cells.(i) in
  if cur == Slots.absent then begin
    let cells = Array.copy r.cells in
    cells.(i) <- v;
    Some { r with cells }
  end
  else if Value.equal_strict cur v then Some r
  else None

(** [seed tab r] re-lays [r] out over [tab] — the clause-boundary
    conversion of the read pipeline.  Layout names unbound in [r] start
    absent; bindings of [r] outside the layout are dropped (the engine
    seeds over the clause's full column set, so there are none in
    practice). *)
let seed tab (r : t) : t =
  if r.tab == tab then r
  else
    {
      tab;
      cells =
        Array.map
          (fun name ->
            match find_opt r name with Some v -> v | None -> Slots.absent)
          tab.Slots.names;
    }

let same_names (a : Slots.t) (b : Slots.t) =
  a == b
  ||
  let a = a.Slots.names and b = b.Slots.names in
  let n = Array.length a in
  n = Array.length b
  &&
  let rec agree i =
    i >= n
    || (let s = Array.unsafe_get a i and s' = Array.unsafe_get b i in
        s == s' || String.equal s s')
       && agree (i + 1)
  in
  agree 0

(** [project tab r] keeps only the bindings for the names of [tab],
    padding missing ones with [Null].  When [r]'s layout already lists
    exactly those names — the common case: a table built over the same
    column list the row was seeded on — the row is reused (or its absent
    slots padded in one array pass) instead of re-laid out. *)
let project tab (r : t) : t =
  if same_names r.tab tab then
    let cells = r.cells in
    let n = Array.length cells in
    let rec has_absent i =
      i < n && (Array.unsafe_get cells i == Slots.absent || has_absent (i + 1))
    in
    if not (has_absent 0) then r
    else
      {
        r with
        cells =
          Array.map (fun v -> if v == Slots.absent then Value.Null else v) cells;
      }
  else { tab; cells = Array.map (find r) tab.Slots.names }

(** [map_values f r] rewrites every bound value (used to replace deleted
    entities by nulls, and to rewrite collapsed ids after MERGE SAME). *)
let map_values f (r : t) : t =
  {
    r with
    cells = Array.map (fun v -> if v == Slots.absent then v else f v) r.cells;
  }

(* comparison and equality: the ascending (name, value) binding
   sequences compared lexicographically, a missing binding ordering
   below any present one.  Same-layout full rows compare cell-to-cell in
   sorted-name order without materialising the sequences. *)

let rec compare_seqs cmp l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (k1, v1) :: t1, (k2, v2) :: t2 ->
      let c = String.compare k1 k2 in
      if c <> 0 then c
      else
        let c = cmp v1 v2 in
        if c <> 0 then c else compare_seqs cmp t1 t2

let full cells =
  let n = Array.length cells in
  let rec go i =
    i >= n || (Array.unsafe_get cells i != Slots.absent && go (i + 1))
  in
  go 0

let compare (r1 : t) (r2 : t) =
  if r1.tab == r2.tab && full r1.cells && full r2.cells then
    let sorted = r1.tab.Slots.sorted in
    let n = Array.length sorted in
    let rec go k =
      if k >= n then 0
      else
        let i = Array.unsafe_get sorted k in
        let c = Value.compare_total r1.cells.(i) r2.cells.(i) in
        if c <> 0 then c else go (k + 1)
    in
    go 0
  else compare_seqs Value.compare_total (bindings r1) (bindings r2)

let equal (r1 : t) (r2 : t) =
  if r1.tab == r2.tab && full r1.cells && full r2.cells then
    let n = Array.length r1.cells in
    let rec go i =
      i >= n || (Value.equal_strict r1.cells.(i) r2.cells.(i) && go (i + 1))
    in
    go 0
  else
    let b1 = bindings r1 and b2 = bindings r2 in
    List.length b1 = List.length b2
    && List.for_all2
         (fun (k1, v1) (k2, v2) ->
           String.equal k1 k2 && Value.equal_strict v1 v2)
         b1 b2

let pp ppf (r : t) =
  Fmt.pf ppf "(%a)"
    Fmt.(
      list ~sep:(any ", ") (fun ppf (k, v) -> pf ppf "%s: %a" k Value.pp v))
    (bindings r)
