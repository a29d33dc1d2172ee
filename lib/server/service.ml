(** Per-connection protocol logic, independent of sockets.

    One [Service.t] holds everything a connected client is: a
    {!Cypher_core.Session} that serves only as the connection's plan
    cache and configuration, and, while a transaction is open, one [tx]
    value: the committed version pinned at the outermost [:begin], the
    working graph (pinned base plus the transaction's own writes) and
    a stack of levels, one per open [:begin], each the working graph
    at that [:begin] plus the update statements recorded at that
    level; the outermost level's graph is the pinned base.  Every
    statement is compiled once, by {!classify}, and run with
    {!Session.run_prepared_on} on an explicit graph: the committed
    head outside a transaction, its working graph inside one.  A
    [:rollback] restores its level's graph as the working graph, and
    the outermost [:commit] hands the recorded statements to the
    committer, which replays them against whatever head its batch
    lands on.

    Protocol (newline-delimited, shell-compatible): one request per
    line — either a [:]-command ([:begin] [:commit] [:rollback]
    [:ping] [:stats] [:quit]) or a Cypher statement.  Every request is
    answered with zero or more payload lines followed by one
    terminator line, [OK rows=<n> version=<v>] or [ERR <message>].
    Payload lines that happen to start with ["OK"] or ["ERR"] are
    escaped with one leading space, so a client can always detect the
    terminator by prefix.

    Isolation: a transaction pins the committed head at [:begin] and
    runs every statement against that snapshot plus its own writes —
    concurrent commits are invisible until [:commit] (snapshot
    isolation for reads).  At commit, if the head moved, every
    buffered update statement is re-executed against the new head in
    order (statement-level skip-on-error), so the final graph always
    equals a serial execution of the committed transactions' update
    statements in commit order.  Reads outside a transaction run on
    the latest committed head; read statements execute on the domain
    pool so concurrent clients' queries run on separate cores instead
    of serializing on the runtime lock of the connection threads'
    domain. *)

open Cypher_graph
open Cypher_table
open Cypher_core
module Parser = Cypher_parser.Parser
module Ast = Cypher_ast.Ast
module Pool = Cypher_util.Pool

(* One update statement recorded inside an open transaction: its source
   (what the journal stores), the statement [classify] compiled, and the
   journal entry its first execution (against the working graph) made.
   The entry serves the commit fast path; the conflict path re-derives
   it by re-running the compiled statement. *)
type recorded = {
  rs_src : string;
  rs_prepared : Api.prepared;
  rs_entry : Session.journal_entry option;
}

(* One open [:begin]: the working graph when it opened (what its
   [:rollback] restores) and the update statements recorded at this
   level, newest first. *)
type level = { lv_graph : Graph.t; lv_stmts : recorded list }

(* An open transaction: the committed version it pinned, the working
   graph every statement inside it runs on, its innermost level, and the
   levels below that, innermost first.  The outermost level's graph is
   the pinned base. *)
type tx = { version : int; working : Graph.t; top : level; below : level list }

type t = {
  shared : Shared.t;
  session : Session.t;
  readers : int;
      (** pool width read statements are submitted under; [<= 1] runs
          them inline on the connection thread *)
  mutable tx : tx option;  (** [None] outside a transaction *)
  mutable closed : bool;  (** [:quit] seen *)
}

let create ?(readers = 1) ?(config = Config.revised) shared =
  (* the session's own graph is never read: every statement runs on a
     graph passed explicitly.  Counters decide what the committer
     journals, so collection is forced on for the connection's whole
     lifetime *)
  let session = Session.create ~config:(Config.with_stats true config) Graph.empty in
  {
    shared;
    session;
    readers;
    tx = None;
    closed = false;
  }

let closed t = t.closed
let session t = t.session

(* ------------------------------------------------------------------ *)
(* Classification                                                     *)
(* ------------------------------------------------------------------ *)

(* Classification compiles through the session's plan cache: a
   connection's hot path is a repeated statement, and re-parsing every
   request just to dispatch it would dominate the committer's serial
   work.  The compiled statement is what runs, live and at a commit's
   replay, so no statement is looked up twice. *)
let classify t src =
  match Session.prepare t.session src with
  | Error e -> Error (Errors.to_string e)
  | Ok p -> Ok ((if Api.prepared_updates p then `Update else `Read), p)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let sanitize m =
  String.map (function '\n' | '\r' -> ' ' | c -> c) (String.trim m)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* payload lines must never look like a terminator *)
let guard line =
  if has_prefix "OK" line || has_prefix "ERR" line then " " ^ line else line

let ok_line ~rows ~version =
  Printf.sprintf "OK rows=%d version=%d" rows version

let err_line m = "ERR " ^ sanitize m

let split_lines s =
  match String.trim s with
  | "" -> []
  | s -> List.map guard (String.split_on_char '\n' s)

let render (r : Api.result) ~version =
  let plan =
    match r.Api.r_plan with None -> [] | Some p -> split_lines p
  in
  (* the unit table (no columns) renders as empty rows of pipes —
     update-only statements answer with just the counter footer *)
  let unit_table = Table.columns r.Api.r_table = [] in
  let table =
    if unit_table then [] else split_lines (Table.to_string r.Api.r_table)
  in
  let footer =
    if Stats.contains_updates r.Api.r_stats then
      split_lines (Stats.footer r.Api.r_stats)
    else []
  in
  let rows = if unit_table then 0 else Table.row_count r.Api.r_table in
  plan @ table @ footer @ [ ok_line ~rows ~version ]

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* the journal entry of statement [src] that took [before] to [r]'s
   graph; none when it left nothing to replay *)
let entry_of t src ~before r =
  Session.journal_entry_of ~config:(Session.config t.session) ~src ~before r

(* read statements run on the domain pool: connection threads are
   systhreads sharing one domain's runtime lock, so CPU-bound query
   work must move to worker domains to overlap across clients *)
let on_pool t f = Pool.await (Pool.submit ~parallelism:t.readers f)

let exec_read t p =
  let version, graph =
    match t.tx with
    | Some tx -> (tx.version, tx.working)
    | None -> Shared.current t.shared
  in
  match on_pool t (fun () -> Session.run_prepared_on t.session graph p) with
  | Ok r -> render r ~version
  | Error e -> [ err_line (Errors.to_string e) ]

(* an update inside a transaction runs on its working graph, which
   advances on success and stays put on failure; the statement is
   recorded whatever its outcome, for replay at commit: a statement that
   was a no-op or an error on this snapshot may do real work against the
   head the commit lands on, and serial-order equivalence needs it
   re-run *)
let exec_tx_update t tx src p =
  let outcome =
    on_pool t (fun () -> Session.run_prepared_on t.session tx.working p)
  in
  let working, entry =
    match outcome with
    | Ok r -> (r.Api.r_graph, entry_of t src ~before:tx.working r)
    | Error _ -> (tx.working, None)
  in
  let stmt = { rs_src = src; rs_prepared = p; rs_entry = entry } in
  t.tx <-
    Some { tx with working; top = { tx.top with lv_stmts = stmt :: tx.top.lv_stmts } };
  match outcome with
  | Ok r -> render r ~version:tx.version
  | Error e -> [ err_line (Errors.to_string e) ]

(* an auto-commit update is executed entirely by the committer, against
   whatever head its batch stacks it on; the statement was compiled at
   classification, so the committer's serial section pays no cache
   lookup *)
let exec_auto_update t src p =
  let payload = ref None in
  let exec head =
    match Session.run_prepared_on t.session head p with
    | Ok r ->
        payload := Some r;
        Ok (r.Api.r_graph, Option.to_list (entry_of t src ~before:head r))
    | Error e -> Error (Errors.to_string e)
  in
  match (Shared.commit t.shared exec, !payload) with
  | Ok v, Some r -> render r ~version:v
  | Ok v, None -> [ ok_line ~rows:0 ~version:v ]
  | Error m, _ -> [ err_line m ]

(* ------------------------------------------------------------------ *)
(* Transactions                                                       *)
(* ------------------------------------------------------------------ *)

let begin_tx t =
  match t.tx with
  | Some tx ->
      let top = { lv_graph = tx.working; lv_stmts = [] } in
      t.tx <- Some { tx with top; below = tx.top :: tx.below }
  | None ->
      let version, head = Shared.current t.shared in
      t.tx <-
        Some
          { version; working = head; top = { lv_graph = head; lv_stmts = [] }; below = [] }

let rollback_tx t =
  match t.tx with
  | None -> Error "no transaction in progress"
  | Some tx ->
      (t.tx <-
         match tx.below with
         | [] -> None
         | top :: below -> Some { tx with working = tx.top.lv_graph; top; below });
      Ok ()

let commit_tx t =
  match t.tx with
  | None -> Error "no transaction in progress"
  | Some ({ top; below = outer :: below; _ } as tx) ->
      (* nested commit: fold the recorded statements into the enclosing
         level; only the outermost commit reaches the committer *)
      let top = { outer with lv_stmts = top.lv_stmts @ outer.lv_stmts } in
      t.tx <- Some { tx with top; below };
      Ok tx.version
  | Some { working; top = { lv_graph = base; lv_stmts }; below = []; _ } ->
      (* the transaction is over whatever the commit's outcome *)
      t.tx <- None;
      let stmts = List.rev lv_stmts in
      Shared.commit t.shared (fun head ->
          if head == base then
            (* fast path: the head never moved under this transaction —
               its working graph is already the serial outcome *)
            Ok (working, List.filter_map (fun r -> r.rs_entry) stmts)
          else begin
            (* conflict path: replay every recorded update statement, in
               order, against the new head; statement-level atomicity
               holds at replay exactly as it did live (a failing
               statement leaves the graph unchanged and is skipped) *)
            let g = ref head in
            let entries =
              List.filter_map
                (fun r ->
                  match Session.run_prepared_on t.session !g r.rs_prepared with
                  | Ok res ->
                      let entry = entry_of t r.rs_src ~before:!g res in
                      g := res.Api.r_graph;
                      entry
                  | Error _ -> None)
                stmts
            in
            Ok (!g, entries)
          end)

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

let current_version t =
  match t.tx with
  | Some tx -> tx.version
  | None -> fst (Shared.current t.shared)

(* [rss_kb=<VmRSS> hwm_kb=<VmHWM>] from /proc/self/status — the
   resident set and its peak, the figure a memory budget is held to;
   [None] where that file is absent *)
let memory_line () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status -> (
      let kb key =
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:key l then
              Scanf.sscanf_opt
                (String.sub l (String.length key) (String.length l - String.length key))
                " %d kB" Fun.id
            else None)
          (String.split_on_char '\n' status)
      in
      match (kb "VmRSS:", kb "VmHWM:") with
      | Some rss, Some hwm -> Some (Printf.sprintf "rss_kb=%d hwm_kb=%d" rss hwm)
      | _ -> None)

let command t line =
  match line with
  | ":ping" -> [ ok_line ~rows:0 ~version:(current_version t) ]
  | ":quit" ->
      t.closed <- true;
      [ ok_line ~rows:0 ~version:(current_version t) ]
  | ":begin" ->
      begin_tx t;
      [ ok_line ~rows:0 ~version:(current_version t) ]
  | ":commit" -> (
      match commit_tx t with
      | Ok v -> [ ok_line ~rows:0 ~version:v ]
      | Error m -> [ err_line m ])
  | ":rollback" -> (
      match rollback_tx t with
      | Ok () -> [ ok_line ~rows:0 ~version:(current_version t) ]
      | Error m -> [ err_line m ])
  | ":stats" ->
      let s = Shared.stats t.shared in
      let payload =
        [
          Printf.sprintf "commits=%d flushes=%d max_batch=%d flush_failures=%d"
            s.Shared.commits s.Shared.flushes s.Shared.max_batch
            s.Shared.flush_failures;
          Printf.sprintf "depth=%d"
            (match t.tx with Some tx -> 1 + List.length tx.below | None -> 0);
        ]
        @ Option.to_list (memory_line ())
      in
      List.map guard payload
      @ [ ok_line ~rows:(List.length payload) ~version:(current_version t) ]
  | _ -> [ err_line ("unknown command " ^ line) ]

(** [handle t line] answers one request with the full response: payload
    lines (already terminator-escaped) followed by the [OK]/[ERR]
    terminator.  Empty input lines produce no response. *)
let handle t line : string list =
  let line = String.trim line in
  if line = "" then []
  else if line.[0] = ':' then command t line
  else
    match classify t line with
    | Error m -> [ err_line m ]
    | Ok (`Read, p) -> exec_read t p
    | Ok (`Update, p) -> (
        match t.tx with
        | Some tx -> exec_tx_update t tx line p
        | None -> exec_auto_update t line p)
