(** Sessions: a mutable graph handle with nested transactions.

    The paper notes that freely mixing reading and writing clauses
    "raises questions regarding atomicity of statements and transaction
    boundaries" (Section 2).  Statement-level atomicity is already
    guaranteed by the engine (a failing statement returns an error and
    the session keeps its previous graph).  This module adds explicit
    transaction boundaries on top: [begin_tx] snapshots the graph,
    [rollback] restores the snapshot, [commit] discards it.  Because the
    store is immutable, snapshots are O(1).

    Transactions nest: each [begin_tx] pushes a snapshot, [commit] and
    [rollback] pop one.

    A session may carry a *journal sink* ([set_journal]) — the hook the
    durable storage layer ([Cypher_storage.Store]) uses to write-ahead
    every graph-changing statement.  Journaling is transactional:
    outside a transaction each statement flushes immediately (and the
    write-ahead happens *before* the in-memory graph advances, so a
    failed append leaves the session exactly as it was); inside a
    transaction entries buffer and flush only at the *outermost* commit;
    rollback discards the buffered entries without journaling
    anything. *)

open Cypher_graph

(** What a journal entry's payload is: the source text of a statement,
    or one batch of a bulk load (a [Cypher_storage.Bulk] frame, replayed
    by the loader rather than the parser). *)
type journal_kind = [ `Statement | `Bulk ]

(** One journaled statement (or bulk batch): its payload, the net update
    counters its application produced, and the configuration it ran
    under. *)
type journal_entry = {
  je_src : string;
  je_stats : Stats.t;
  je_config : Config.t;
  je_kind : journal_kind;
}

(** One open transaction.  The snapshot and the pending journal buffer
    live in the same value, so rollback can never pop a snapshot without
    also dropping exactly that transaction's buffered entries (the two
    stacks previously lived in separate fields and could fall out of
    step when a journal sink was attached mid-transaction). *)
type tx_frame = {
  fr_snapshot : Graph.t;  (** graph to restore on rollback / failed flush *)
  mutable fr_entries : journal_entry list;  (** newest-first *)
}

type t = {
  mutable graph : Graph.t;
  mutable config : Config.t;
  mutable frames : tx_frame list;
      (** open transactions, innermost first *)
  mutable journal : (journal_entry list -> unit) option;
  mutable cache : Api.prepared Plan_cache.t;
      (** LRU of compiled statements, keyed on normalized statement text
          plus the config fingerprint below *)
  mutable fingerprint : string;
      (** [config_fingerprint config], maintained by {!set_config} so
          cache hits don't re-render it per statement *)
}

let graph s = s.graph
let config s = s.config


(* The plan-cache key is the normalized statement text plus the config
   fields that change what compilation produces: the dialect decides
   validation, planner/match_mode/mode/order/collect_stats
   decide plan choice and execution strategy.  Parameters are
   deliberately excluded — rebinding values must hit — as is journal
   durability, which only affects how the storage layer flushes. *)
let config_fingerprint (c : Config.t) =
  Printf.sprintf "%s|%s|%s|%s|%b|%s"
    (match c.Config.mode with Config.Legacy -> "legacy" | Config.Atomic -> "atomic")
    (match c.Config.order with
    | Config.Forward -> "fwd"
    | Config.Reverse -> "rev"
    | Config.Seeded n -> "seed" ^ string_of_int n)
    (match c.Config.match_mode with
    | Config.Isomorphic -> "iso"
    | Config.Homomorphic -> "homo")
    (match c.Config.planner with Config.On -> "on" | Config.Off -> "off")
    c.Config.collect_stats
    (match c.Config.dialect with
    | Cypher_ast.Validate.Cypher9 -> "cypher9"
    | Cypher_ast.Validate.Revised -> "revised"
    | Cypher_ast.Validate.Permissive -> "permissive")

let create ?(config = Config.revised) graph =
  {
    graph;
    config;
    frames = [];
    journal = None;
    cache = Plan_cache.create config.Config.plan_cache_capacity;
    fingerprint = config_fingerprint config;
  }

(* Normalization: surrounding whitespace and a trailing [;] never change
   what a statement compiles to. *)
let normalize_src src =
  let src = String.trim src in
  let n = String.length src in
  if n > 0 && src.[n - 1] = ';' then String.trim (String.sub src 0 (n - 1))
  else src


(** [set_config s config] swaps the session configuration.  A change to
    any field of the plan-cache key (semantics mode, record order, match
    mode, planner, stats collection, dialect) invalidates
    the cached compiled statements — a plan chosen under the old config
    must not be served under the new one; parameter rebinding does not
    invalidate.  Changing the cache capacity rebuilds the cache. *)
let set_config s config =
  let old = s.config in
  let fp = config_fingerprint config in
  let fp_changed = fp <> s.fingerprint in
  s.config <- config;
  s.fingerprint <- fp;
  if
    config.Config.plan_cache_capacity
    <> old.Config.plan_cache_capacity
  then s.cache <- Plan_cache.create config.Config.plan_cache_capacity
  else if fp_changed then Plan_cache.invalidate s.cache

(** Plan-cache hit/miss/eviction/invalidation counters. *)
let cache_stats s = Plan_cache.stats s.cache

(** [register_prop_index s ~label ~key] builds the (label, key) property
    index on the session graph and invalidates the plan cache: compiled
    statements carry plans chosen without the index, and serving them
    would silently forfeit it.  (Each compiled statement's plan memo
    additionally checks the graph's index key set on every execution, so
    even externally swapped graphs can never be served stale plans.) *)
let register_prop_index s ~label ~key =
  s.graph <- Graph.add_prop_index ~label ~key s.graph;
  Plan_cache.invalidate s.cache
let set_journal s sink = s.journal <- sink

(** Transaction depth: 0 outside any transaction. *)
let depth s = List.length s.frames

let in_transaction s = s.frames <> []

let begin_tx s =
  s.frames <-
    { fr_snapshot = s.graph; fr_entries = [] }
    :: s.frames

let flush s entries =
  match (s.journal, entries) with
  | None, _ | _, [] -> Ok ()
  | Some sink, entries -> (
      try
        sink entries;
        Ok ()
      with
      | Errors.Error e ->
          (* a sink that fails with a structured error (e.g. the store
             is closed) keeps it structured for the caller *)
          Error e
      | e ->
          Error
            (Errors.Update_error
               ("journal append failed: " ^ Printexc.to_string e)))

let commit s =
  match s.frames with
  | [] -> Error "no transaction in progress"
  | frame :: rest -> (
      match (frame.fr_entries, rest) with
      | [], _ ->
          s.frames <- rest;
          Ok ()
      | entries, outer :: _ ->
          (* nested commit: fold the entries into the enclosing
             transaction; only the outermost commit reaches the sink *)
          s.frames <- rest;
          outer.fr_entries <- entries @ outer.fr_entries;
          Ok ()
      | entries, [] -> (
          match flush s (List.rev entries) with
          | Ok () ->
              s.frames <- rest;
              Ok ()
          | Error e ->
              (* the journal is the durability contract: a commit whose
                 entries cannot be written aborts, restoring the
                 transaction's snapshot *)
              s.graph <- frame.fr_snapshot;
              s.frames <- rest;
              Error (Errors.to_string e)))

let rollback s =
  match s.frames with
  | [] -> Error "no transaction in progress"
  | frame :: rest ->
      (* the frame's buffered entries die with it: rollback journals
         nothing, and the entries cannot outlive their snapshot *)
      s.graph <- frame.fr_snapshot;
      s.frames <- rest;
      Ok ()

(* Journaling needs the update counters to decide whether a statement
   changed the graph; when a sink is attached, collection is forced on
   regardless of the configured [collect_stats]. *)
let effective_config s =
  if s.journal <> None then Config.with_stats true s.config else s.config

(* Buffers [entry] in the innermost open transaction, or writes it ahead
   outside one, then moves the graph to [graph']; a failed append leaves
   the graph where it was. *)
let record s entry graph' =
  match s.frames with
  | frame :: _ ->
      frame.fr_entries <- entry :: frame.fr_entries;
      s.graph <- graph';
      Ok ()
  | [] -> (
      match flush s [ entry ] with
      | Ok () ->
          s.graph <- graph';
          Ok ()
      | Error e -> Error e)

(* A statement that consumed ids must be journaled even when its
   counters net to zero ([CREATE (n) DELETE n]): replay has to consume
   the same ids, or every later record that names an id meets another
   entity *)
let journal_entry_of ~config ~src ~before (r : Api.result) =
  if
    Stats.contains_updates r.Api.r_stats
    || Graph.next_id r.Api.r_graph <> Graph.next_id before
  then Some { je_src = src; je_stats = r.Api.r_stats; je_config = config; je_kind = `Statement }
  else None

(** Records a successful statement into the journal (write-ahead when
    outside a transaction) and advances the session graph.  A statement
    that left nothing to replay journals nothing. *)
let advance s ~src (r : Api.result) =
  match journal_entry_of ~config:s.config ~src ~before:s.graph r with
  | Some entry when s.journal <> None ->
      Result.map (fun () -> r) (record s entry r.Api.r_graph)
  | _ ->
      s.graph <- r.Api.r_graph;
      Ok r

(** [advance_bulk s ~src ~stats graph'] journals one externally-applied
    bulk load — [src] is its frame payload ([Cypher_storage.Bulk]'s
    line format, not Cypher), [stats] its net counters — and advances
    the session graph to [graph'].  Write-ahead discipline matches
    {!advance}: immediate flush outside a transaction, buffered inside
    one; on a failed append the graph does not move. *)
let advance_bulk s ~src ~stats graph' =
  if s.journal = None then begin
    s.graph <- graph';
    Ok ()
  end
  else
    let entry =
      { je_src = src; je_stats = stats; je_config = s.config; je_kind = `Bulk }
    in
    record s entry graph'

(* Compile through the plan cache: a hit skips lexing, parsing,
   validation and (via the statement's plan memo) match planning.
   Compilation errors are not cached — error statements are not hot
   paths, and caching them would mask later fixes to e.g. dialect. *)
let compile s config src =
  (* [effective_config] returns [s.config] itself unless a journal sink
     rewrote it, so the common path reuses the maintained fingerprint
     instead of re-rendering it for every statement *)
  let fp =
    if config == s.config then s.fingerprint else config_fingerprint config
  in
  let key = normalize_src src ^ "\x00" ^ fp in
  match Plan_cache.find s.cache key with
  | Some p -> Ok (p, `Hit)
  | None -> (
      match Api.prepare ~config src with
      | Error e -> Error e
      | Ok p ->
          Plan_cache.add s.cache key p;
          Ok (p, `Miss))

(** [prepare s src] compiles [src] through the session's plan cache
    without executing it — a repeat call with the same normalized text
    under the same config is a cache hit that skips lexing, parsing and
    validation.  The server's request dispatcher classifies every
    incoming statement (read vs update), so classification must not
    cost a full parse per request. *)
let prepare s src : (Api.prepared, Errors.t) result =
  match compile s (effective_config s) src with
  | Error e -> Error e
  | Ok (p, _) -> Ok p

(* Surfacing: EXPLAIN / PROFILE output grows a trailing cache-status
   line, so the observability layer shows whether compilation was
   served from the cache. *)
let annotate_plan status (r : Api.result) =
  match r.Api.r_plan with
  | None -> r
  | Some plan ->
      let line =
        match status with
        | `Hit -> "plan cache: hit"
        | `Miss -> "plan cache: miss"
      in
      { r with Api.r_plan = Some (plan ^ "\n" ^ line) }

(** [run s src] executes one statement against the session graph —
    recognising EXPLAIN / PROFILE prefixes — and returns the full
    {!Api.result} (table, update counters, optional plan/profile); the
    graph advances only on success (statement-level atomicity).

    Statements compile through the session's LRU plan cache: a repeat
    execution of the same (normalized) statement text under the same
    config skips lexing, parsing, validation and match planning, and
    resolves the current [config.params] against the cached compiled
    statement.  Statements referencing unsupplied parameters fail up
    front with the [$param]'s source position. *)
let run s src : (Api.result, Errors.t) result =
  let config = effective_config s in
  match compile s config src with
  | Error e -> Error e
  | Ok (p, status) -> (
      match Api.execute_full p config.Config.params s.graph with
      | Ok r -> advance s ~src (annotate_plan status r)
      | Error e -> Error e)

(** [run_query s q] is {!run} for a pre-parsed query.  Journaled source
    text is the pretty-printed statement (print/parse round-tripping is
    oracle 1 of the fuzz suite). *)
let run_query ?prefix s q : (Api.result, Errors.t) result =
  match Api.run_query_full ~config:(effective_config s) ?prefix s.graph q with
  | Ok r -> advance s ~src:(Cypher_ast.Pretty.query_to_string q) r
  | Error e -> Error e

(** [reset s] drops the graph and any open transactions (buffered
    journal entries included — the caller owning the sink is responsible
    for persisting the cleared state, e.g. [Store.compact]). *)
let reset s =
  s.graph <- Graph.empty;
  s.frames <- []

(* ------------------------------------------------------------------ *)
(* Execution against explicit graphs                                  *)
(* ------------------------------------------------------------------ *)

(** [run_on s graph src] compiles [src] through the session's plan
    cache and executes it against [graph] — not the session graph — and
    does not advance the session or touch the journal.  Update-counter
    collection is forced on, so the caller can tell from the counters
    whether the statement changed [graph]. *)
let run_on s graph src : (Api.result, Errors.t) result =
  let config = Config.with_stats true s.config in
  match compile s config src with
  | Error e -> Error e
  | Ok (p, status) -> (
      match Api.execute_full p config.Config.params graph with
      | Ok r -> Ok (annotate_plan status r)
      | Error e -> Error e)

(** [run_prepared_on s graph p] executes a statement compiled by this
    session's {!prepare} against [graph], under the session's current
    parameters, without a cache lookup: the compiled statement is in
    hand, and runs even after the cache has evicted it.  Neither the
    session nor the journal is touched. *)
let run_prepared_on s graph (p : Api.prepared) :
    (Api.result, Errors.t) result =
  Api.execute_full p s.config.Config.params graph

(** [set_graph s g] replaces the session graph with [g].  Refused
    inside a transaction: the open frames hold snapshots of the graph
    being replaced, and rolling back across a reposition would
    resurrect the old line of history. *)
let set_graph s g =
  if in_transaction s then Error "cannot reposition a session inside a transaction"
  else begin
    s.graph <- g;
    Ok ()
  end
