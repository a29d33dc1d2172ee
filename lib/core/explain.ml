(** EXPLAIN / PROFILE plan rendering.

    Renders, per top-level clause, the traversal the matcher would use:
    for each path pattern of a MATCH / MERGE, the {!Cypher_matcher.Plan}
    the planner picks against the *current* graph statistics, or the
    reason the naive left-to-right enumeration is used instead (planner
    off, pattern not plannable, empty graph).

    The rendering probes {!Cypher_matcher.Plan.make} with every
    in-scope variable bound to null — a variable bound by an earlier
    clause is bound at match time, and the planner only asks *whether*
    a variable is bound, never what to.  Estimates are read from the
    graph the statement starts on; clauses further down see the graph
    their predecessors produce, so their statistics are approximations
    (flagged in the header). *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Plan = Cypher_matcher.Plan
module Pretty = Cypher_ast.Pretty

let clause_label c =
  let s = Pretty.clause_to_string c in
  if String.length s <= 72 then s else String.sub s 0 69 ^ "..."

(** The variables a clause adds to (or, for projections, resets) the
    scope — enough for boundness probing; validation proper happens in
    {!Cypher_ast.Validate}. *)
let scope_after bound (c : clause) =
  let add vars = List.fold_left (fun acc v -> v :: acc) bound vars in
  match c with
  | Match { patterns; _ } | Create patterns ->
      add (List.concat_map pattern_vars patterns)
  | Merge { patterns; _ } -> add (List.concat_map pattern_vars patterns)
  | Unwind { alias; _ } -> add [ alias ]
  | With proj | Return proj ->
      let aliases =
        List.filter_map
          (fun it ->
            match it.item_alias with
            | Some a -> Some a
            | None -> ( match it.item_expr with Var v -> Some v | _ -> None))
          proj.proj_items
      in
      if proj.proj_star then add aliases else aliases
  | Set _ | Remove _ | Delete _ | Foreach _ -> bound

let probe_row bound = Record.of_list (List.map (fun v -> (v, Value.Null)) bound)

let indent prefix s =
  String.split_on_char '\n' s
  |> List.map (fun l -> prefix ^ l)
  |> String.concat "\n"

let describe_patterns config g bound patterns buf =
  let row = probe_row bound in
  let ctx = Runtime.ctx config g row in
  List.iteri
    (fun i (p : pattern) ->
      let head = Printf.sprintf "    pattern %d:" i in
      if not (Runtime.planner_on config) then
        Buffer.add_string buf (head ^ " naive left-to-right (planner off)\n")
      else
        match Plan.make ctx row p with
        | None ->
            Buffer.add_string buf
              (head ^ " naive left-to-right (not plannable here)\n")
        | Some plan ->
            Buffer.add_string buf
              (head ^ "\n" ^ indent "      " (Plan.describe plan) ^ "\n"))
    patterns

let header config ~profiled =
  let mode =
    match config.Config.mode with
    | Config.Legacy -> "legacy"
    | Config.Atomic -> "atomic"
  in
  let planner = if Runtime.planner_on config then "on" else "off" in
  (* every statement runs on one domain; the field is kept so the
     header format stays stable *)
  let exec = "serial" ^ if profiled then " (clause times exact)" else "" in
  Printf.sprintf "plan: mode=%s planner=%s execution=%s" mode planner exec

(** [render config g q] is the EXPLAIN rendering of statement [q]
    against graph [g] (statistics from [g]; later clauses see derived
    graphs, so their estimates are indicative). *)
let render ?(profiled = false) config g (q : query) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header config ~profiled);
  Buffer.add_char buf '\n';
  let rec walk bound (q : query) =
    let bound =
      List.fold_left
        (fun bound c ->
          Buffer.add_string buf ("  " ^ clause_label c ^ "\n");
          (match c with
          | Match { patterns; _ } | Merge { patterns; _ } ->
              describe_patterns config g bound patterns buf
          | _ -> ());
          scope_after bound c)
        bound q.clauses
    in
    match q.union with
    | None -> bound
    | Some (all, q') ->
        Buffer.add_string buf
          (if all then "  UNION ALL\n" else "  UNION\n");
        (* each branch starts on the unit table: fresh scope *)
        walk [] q'
  in
  let (_ : string list) = walk [] q in
  (* drop the trailing newline *)
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s
