(** Static validation of queries against a dialect.

    The same AST serves three dialects:

    - {!Cypher9}: the grammar of Figures 2–5.  Update patterns are
      restricted (CREATE takes tuples of *directed* patterns, MERGE takes
      a *single*, possibly undirected pattern), reading clauses may not
      follow update clauses without an intervening WITH (the demarcation
      rule of Section 4.4), and the [MERGE ALL]/[MERGE SAME] keywords do
      not exist.
    - {!Revised}: the streamlined grammar of Figure 10.  Clauses compose
      freely, CREATE and MERGE uniformly take tuples of directed
      patterns, and plain [MERGE] is no longer allowed — the user must
      choose [MERGE ALL] or [MERGE SAME] (Section 7).
    - {!Permissive}: anything the parser accepts, including the
      experimental [MERGE GROUPING]/[WEAK]/[COLLAPSE] spellings for the
      other Section 6 proposals.  Used by the experiment harness.

    Note: Figure 2 as printed does not derive a RETURN directly after
    update clauses, but Cypher 9 as shipped accepts e.g.
    [CREATE (n) RETURN n]; we follow the implementation and allow a final
    RETURN after updates in all dialects. *)

open Ast

type dialect = Cypher9 | Revised | Permissive

type error = { message : string }

let err fmt = Format.kasprintf (fun message -> Error { message }) fmt

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let rec iter_result f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      iter_result f rest

(* ------------------------------------------------------------------ *)
(* Pattern restrictions (Figure 5 / Figure 10)                        *)
(* ------------------------------------------------------------------ *)

let check_update_rel_pat ~clause ~directed (rp : rel_pat) =
  let* () =
    match rp.rp_types with
    | [ _ ] -> Ok ()
    | [] ->
        err "%s pattern: relationship must carry exactly one type" clause
    | _ :: _ :: _ ->
        err "%s pattern: relationship must carry exactly one type, not an \
             alternative"
          clause
  in
  let* () =
    match rp.rp_range with
    | None -> Ok ()
    | Some _ ->
        err "%s pattern: variable-length relationships are not allowed in \
             update patterns"
          clause
  in
  if directed && rp.rp_dir = Undirected then
    err "%s pattern: relationships must be directed" clause
  else Ok ()

let check_update_pattern ~clause ~directed (p : pattern) =
  iter_result
    (fun (rp, _) -> check_update_rel_pat ~clause ~directed rp)
    p.pat_steps

(* ------------------------------------------------------------------ *)
(* Clause-level checks                                                *)
(* ------------------------------------------------------------------ *)

(** The variables a clause brings into scope, folded over a clause
    sequence.  Only boundness is tracked (enough for the FOREACH
    shadowing check and EXPLAIN's planner probe): patterns and UNWIND
    add their variables, a projection without [*] resets the scope to
    its output columns. *)
let scope_after scope = function
  | Match { patterns; _ } | Create patterns | Merge { patterns; _ } ->
      List.concat_map pattern_vars patterns @ scope
  | Unwind { alias; _ } -> alias :: scope
  | With proj | Return proj ->
      let aliases =
        List.filter_map
          (fun it ->
            match it.item_alias with
            | Some a -> Some a
            | None -> ( match it.item_expr with Var v -> Some v | _ -> None))
          proj.proj_items
      in
      if proj.proj_star then aliases @ scope else aliases
  | Set _ | Remove _ | Delete _ | Foreach _ -> scope

let rec check_clause dialect ~scope = function
  | Create ps ->
      iter_result (check_update_pattern ~clause:"CREATE" ~directed:true) ps
  | Merge { mode; patterns; _ } -> check_merge dialect mode patterns
  | Foreach { fe_var; fe_body; _ } ->
      (* the loop variable must be fresh: openCypher rejects shadowing
         an in-scope variable ("variable already declared"), and the
         engine would otherwise silently rebind it inside the body *)
      let* () =
        if List.mem fe_var scope then
          err "FOREACH: variable `%s` already declared" fe_var
        else Ok ()
      in
      let* () =
        iter_result
          (fun c ->
            if is_update_clause c then Ok ()
            else err "FOREACH body may contain only update clauses")
          fe_body
      in
      check_body dialect ~scope:(fe_var :: scope) fe_body
  | Match _ | Unwind _ | With _ | Return _ | Set _ | Remove _ | Delete _ ->
      Ok ()

(** Checks a clause sequence, threading the scope left to right. *)
and check_body dialect ~scope = function
  | [] -> Ok ()
  | c :: rest ->
      let* () = check_clause dialect ~scope c in
      check_body dialect ~scope:(scope_after scope c) rest

and check_merge dialect mode patterns =
  match (dialect, mode) with
  | Cypher9, Merge_legacy ->
      let* () =
        match patterns with
        | [ _ ] -> Ok ()
        | _ -> err "Cypher 9 MERGE takes a single pattern"
      in
      (* undirected relationships are allowed in Cypher 9 MERGE *)
      iter_result
        (check_update_pattern ~clause:"MERGE" ~directed:false)
        patterns
  | Cypher9, _ ->
      err "%s is not part of Cypher 9 (use plain MERGE)"
        (Pretty.merge_keyword mode)
  | Revised, Merge_legacy ->
      err
        "plain MERGE is no longer allowed; choose MERGE ALL or MERGE SAME \
         (Section 7)"
  | Revised, (Merge_all | Merge_same) ->
      iter_result (check_update_pattern ~clause:"MERGE" ~directed:true) patterns
  | Revised, (Merge_grouping | Merge_weak_collapse | Merge_collapse) ->
      err
        "%s is an experimental proposal; enable the Permissive dialect to \
         use it"
        (Pretty.merge_keyword mode)
  | Permissive, Merge_legacy ->
      iter_result (check_update_pattern ~clause:"MERGE" ~directed:false) patterns
  | Permissive, _ ->
      iter_result (check_update_pattern ~clause:"MERGE" ~directed:true) patterns

(* ------------------------------------------------------------------ *)
(* Clause sequencing                                                  *)
(* ------------------------------------------------------------------ *)

(** Cypher 9 (Figure 2): once an update clause has been seen, reading
    clauses require an intervening WITH; WITH resets the state. *)
let check_sequence_cypher9 clauses =
  let rec loop ~after_update = function
    | [] -> Ok ()
    | c :: rest -> (
        match c with
        | With _ -> loop ~after_update:false rest
        | Return _ ->
            if rest = [] then Ok ()
            else err "RETURN must be the final clause"
        | Match _ | Unwind _ ->
            if after_update then
              err
                "Cypher 9 requires WITH between update clauses and reading \
                 clauses (Section 4.4)"
            else loop ~after_update rest
        | Create _ | Set _ | Remove _ | Delete _ | Merge _ | Foreach _ ->
            loop ~after_update:true rest)
  in
  loop ~after_update:false clauses

(** Revised grammar (Figure 10): clauses compose freely; RETURN final. *)
let check_sequence_free clauses =
  let rec loop = function
    | [] -> Ok ()
    | Return _ :: rest ->
        if rest = [] then Ok () else err "RETURN must be the final clause"
    | _ :: rest -> loop rest
  in
  loop clauses

let check_nonempty clauses =
  if clauses = [] then err "empty query" else Ok ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let rec check_query dialect (q : query) =
  let* () = check_nonempty q.clauses in
  let* () =
    match dialect with
    | Cypher9 -> check_sequence_cypher9 q.clauses
    | Revised | Permissive -> check_sequence_free q.clauses
  in
  let* () = check_body dialect ~scope:[] q.clauses in
  match q.union with None -> Ok () | Some (_, q') -> check_query dialect q'

let validate dialect q =
  match check_query dialect q with
  | Ok () -> Ok q
  | Error e -> Error e.message
