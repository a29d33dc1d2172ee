(** Slot tables: compiled name → index layouts for array rows.

    Within one clause execution every driving row has the same columns,
    so the mapping from variable names to row positions can be computed
    once — at the clause boundary — instead of being re-derived by every
    bind and lookup through a string-keyed map.  A slot table is that
    compiled layout: a deduplicated name array in first-occurrence
    order, plus the index permutation that lists slots in ascending name
    order (so rows observe their keys in ascending name order, as the
    semantics' finite maps do — see {!Record}).

    Lookup is a linear scan comparing physical equality before string
    contents: the names flowing in are AST/column strings shared by
    every row of a clause, so the [==] probe almost always decides, and
    rows are narrow enough (a handful of variables) that a scan beats
    any hashing scheme. *)

open Cypher_graph

type t = {
  names : string array;  (** slot order: first occurrence wins *)
  sorted : int array;  (** slot indices in ascending name order *)
  mutable exts : (string * t) list;
      (** memoized single-name extensions (see {!extend}).  Extension
          from pool workers can race; a lost memo update only costs a
          duplicate (equivalent) table, never correctness — every
          consumer compares layouts by name, not by identity. *)
}

(** A physically unique sentinel marking an unbound slot.  Array rows
    are always full-width, but a slot may not be bound yet (pattern
    variables during matching) or may have been removed; [absent] is
    distinguishable from an explicit [Null] binding (OPTIONAL MATCH
    padding binds real nulls) only by physical identity — compare with
    [==], and never let it escape a {!Record} accessor. *)
let absent : Value.t = Value.String (String.make 8 '\000')

let width t = Array.length t.names
let name t i = t.names.(i)

(** [index t name] is [name]'s slot, or [-1] when it has none. *)
let index t name =
  let names = t.names in
  let n = Array.length names in
  let rec go i =
    if i >= n then -1
    else
      let s = Array.unsafe_get names i in
      if s == name || String.equal s name then i else go (i + 1)
  in
  go 0

(** [of_names names] compiles a layout over [names], deduplicated to
    first occurrence (the same discipline as [Table.dedup_columns]). *)
let of_names names =
  let rec dedup acc = function
    | [] -> List.rev acc
    | c :: rest ->
        if List.exists (fun s -> s == c || String.equal s c) acc then
          dedup acc rest
        else dedup (c :: acc) rest
  in
  let names = Array.of_list (dedup [] names) in
  let sorted = Array.init (Array.length names) Fun.id in
  Array.sort (fun i j -> String.compare names.(i) names.(j)) sorted;
  { names; sorted; exts = [] }

let names t = Array.to_list t.names

(** [extend t name] is the layout of [t] with [name] appended (slot
    [width t]).  Memoized on [t]: the evaluator extends a clause's
    layout with the same loop variable (list comprehensions, reduce,
    pattern predicates) for every row, and must not compile a fresh
    table per element.

    Extensions of a zero-width layout are never memoized.  The empty
    record's layout lives for the whole process, and names bound onto
    it come from clients (CSV headers, aliases, parameters); a memo
    there would grow without bound in a long-running server.  Callers
    that build a row name by name compile their layout once with
    {!of_names} instead. *)
let extend t name =
  if Array.length t.names = 0 then of_names [ name ]
  else
    match
      List.find_opt (fun (s, _) -> s == name || String.equal s name) t.exts
    with
    | Some (_, t') -> t'
    | None ->
        let t' = of_names (Array.to_list t.names @ [ name ]) in
        t.exts <- (name, t') :: t.exts;
        t'
