(** Per-connection protocol logic, independent of sockets.

    One [Service.t] holds everything a connected client is: a
    {!Cypher_core.Session} (plan cache + working graph), the pinned
    base snapshot of its open transaction, and the explicit stack of
    recorded update statements — the transaction state the tentpole
    lifts out of the mutable session record, so the committer can
    replay a transaction against whatever head its batch lands on.

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
   and the counters its first execution (against the pinned snapshot)
   produced.  The counters serve the commit fast path; the conflict
   path re-derives them by re-execution. *)
type recorded = { rs_src : string; rs_stats : Stats.t }

type t = {
  shared : Shared.t;
  session : Session.t;
  readers : int;
      (** pool width read statements are submitted under; [<= 1] runs
          them inline on the connection thread *)
  mutable pinned : (int * Graph.t) option;
      (** base snapshot of the open transaction, [None] outside one *)
  mutable frames : recorded list list;
      (** recorded update statements, one frame per open transaction
          level, innermost first, each newest-first *)
  mutable closed : bool;  (** [:quit] seen *)
}

let create ?(readers = 1) ?(config = Config.revised) shared =
  let _, head = Shared.current shared in
  (* counters decide what the committer journals, so collection is
     forced on for the connection's whole lifetime *)
  let session = Session.create ~config:(Config.with_stats true config) head in
  {
    shared;
    session;
    readers;
    pinned = None;
    frames = [];
    closed = false;
  }

let closed t = t.closed
let in_tx t = t.pinned <> None
let session t = t.session

(* ------------------------------------------------------------------ *)
(* Classification                                                     *)
(* ------------------------------------------------------------------ *)

(* Classification compiles through the session's plan cache: a
   connection's hot path is a repeated statement, and re-parsing every
   request just to dispatch it would dominate the committer's serial
   work.  The compiled statement is cached, so the execution that
   follows hits too. *)
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

let entry_of ~config src stats =
  {
    Session.je_src = src;
    je_stats = stats;
    je_config = config;
    je_kind = `Statement;
  }

(* read statements run on the domain pool: connection threads are
   systhreads sharing one domain's runtime lock, so CPU-bound query
   work must move to worker domains to overlap across clients *)
let on_pool t f = Pool.await (Pool.submit ~parallelism:t.readers f)

let exec_read t p =
  let version, graph =
    match t.pinned with
    | Some (v, _) -> (v, Session.graph t.session)
    | None -> Shared.current t.shared
  in
  match on_pool t (fun () -> Session.run_prepared_on t.session graph p) with
  | Ok r -> render r ~version
  | Error e -> [ err_line (Errors.to_string e) ]

(* an update inside a transaction executes against the session's
   working graph (pinned base + own writes) and is recorded — whatever
   its outcome — for replay at commit: a statement that was a no-op or
   an error on this snapshot may do real work against the head the
   commit lands on, and serial-order equivalence needs it re-run *)
let exec_tx_update t src =
  let version = match t.pinned with Some (v, _) -> v | None -> 0 in
  let outcome = on_pool t (fun () -> Session.run t.session src) in
  let stats =
    match outcome with Ok r -> r.Api.r_stats | Error _ -> Stats.empty
  in
  (match t.frames with
  | f :: rest -> t.frames <- ({ rs_src = src; rs_stats = stats } :: f) :: rest
  | [] -> ());
  match outcome with
  | Ok r -> render r ~version
  | Error e -> [ err_line (Errors.to_string e) ]

(* an auto-commit update is executed entirely by the committer, against
   whatever head its batch stacks it on; the statement was compiled at
   classification, so the committer's serial section pays no cache
   lookup *)
let exec_auto_update t src p =
  let config = Session.config t.session in
  let payload = ref None in
  let exec head =
    match Session.run_prepared_on t.session head p with
    | Ok r ->
        payload := Some r;
        let entries =
          if Stats.contains_updates r.Api.r_stats then
            [ entry_of ~config src r.Api.r_stats ]
          else []
        in
        Ok (r.Api.r_graph, entries)
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
  if in_tx t then begin
    Session.begin_tx t.session;
    t.frames <- [] :: t.frames
  end
  else begin
    let v, head = Shared.current t.shared in
    (match Session.set_graph t.session head with Ok () -> () | Error _ -> ());
    Session.begin_tx t.session;
    t.pinned <- Some (v, head);
    t.frames <- [ [] ]
  end

let rollback_tx t =
  match t.frames with
  | [] -> Error "no transaction in progress"
  | [ _ ] ->
      ignore (Session.rollback t.session : (unit, string) result);
      t.pinned <- None;
      t.frames <- [];
      Ok ()
  | _ :: rest ->
      ignore (Session.rollback t.session : (unit, string) result);
      t.frames <- rest;
      Ok ()

let commit_tx t =
  match (t.pinned, t.frames) with
  | None, _ | _, [] -> Error "no transaction in progress"
  | Some _, frame :: (outer :: _ as rest) ->
      (* nested commit: fold the recorded statements into the enclosing
         level; only the outermost commit reaches the committer *)
      (match Session.commit t.session with
      | Ok () -> ()
      | Error _ -> ());
      t.frames <- (frame @ outer) :: List.tl rest;
      Ok 0
  | Some (_, base), [ frame ] -> (
      let stmts = List.rev frame in
      let working = Session.graph t.session in
      let config = Session.config t.session in
      let final = ref working in
      let exec head =
        if head == base then begin
          (* fast path: the head never moved under this transaction —
             its working graph is already the serial outcome *)
          final := working;
          Ok
            ( working,
              List.filter_map
                (fun r ->
                  if Stats.contains_updates r.rs_stats then
                    Some (entry_of ~config r.rs_src r.rs_stats)
                  else None)
                stmts )
        end
        else begin
          (* conflict path: replay every recorded update statement, in
             order, against the new head; statement-level atomicity
             holds at replay exactly as it did live (a failing
             statement leaves the graph unchanged and is skipped) *)
          let g = ref head in
          let entries =
            List.filter_map
              (fun r ->
                match Session.run_on t.session !g r.rs_src with
                | Ok res ->
                    g := res.Api.r_graph;
                    if Stats.contains_updates res.Api.r_stats then
                      Some (entry_of ~config r.rs_src res.Api.r_stats)
                    else None
                | Error _ -> None)
              stmts
          in
          final := !g;
          Ok (!g, entries)
        end
      in
      let outcome = Shared.commit t.shared exec in
      (* the transaction is over either way: pop the session frame back
         to the pinned base, then reposition on the commit's result
         (success) or stay on the base (abort) *)
      ignore (Session.rollback t.session : (unit, string) result);
      t.pinned <- None;
      t.frames <- [];
      match outcome with
      | Ok v ->
          (match Session.set_graph t.session !final with
          | Ok () -> ()
          | Error _ -> ());
          Ok v
      | Error m -> Error m)

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

let current_version t =
  match t.pinned with
  | Some (v, _) -> v
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
      | Ok v ->
          [ ok_line ~rows:0 ~version:(if v = 0 then current_version t else v) ]
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
          Printf.sprintf "depth=%d" (List.length t.frames);
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
    | Ok (`Update, _) when in_tx t -> exec_tx_update t line
    | Ok (`Update, p) -> exec_auto_update t line p
