(** Sessions: a mutable graph handle with nested transactions.

    Statement-level atomicity is already guaranteed by the engine (a
    failing statement leaves the session graph unchanged); this module
    adds explicit transaction boundaries: {!begin_tx} snapshots the
    graph, {!rollback} restores the snapshot, {!commit} discards it.
    Because the store is immutable, snapshots are O(1).  Transactions
    nest.

    A session may carry a journal sink ({!set_journal}): every
    graph-changing statement is handed to the sink *before* the
    in-memory graph advances (write-ahead).  Inside transactions entries
    buffer and reach the sink only at the outermost {!commit};
    {!rollback} journals nothing.  The durable storage layer
    ([Cypher_storage.Store]) builds on this hook.

    Statements enter as text only, compiled by {!Api.prepare} through
    the session's plan cache, so a statement runs live exactly as
    recovery replays its journaled text: the same compile, the same
    up-front parameter check.  A caller holding an AST prints it
    ([Cypher_parser.Parser.statement_to_string]) and runs the text. *)

open Cypher_graph

type t

(** How a journal entry's [je_src] is to be replayed: [`Statement] is
    Cypher source re-executed through the [Api]; [`Bulk] is a bulk-load
    frame in the loader's line format, applied directly to the graph
    (see [Cypher_storage.Bulk]). *)
type journal_kind = [ `Statement | `Bulk ]

(** One journaled statement: source text, the net update counters its
    application produced, the configuration it ran under, and how to
    replay it. *)
type journal_entry = {
  je_src : string;
  je_stats : Stats.t;
  je_config : Config.t;
  je_kind : journal_kind;
}

(** [journal_entry_of ~config ~src ~before r] is the entry that
    journals statement [src], which took [before] to [r]'s graph under
    [config]: [Some] when its counters show a change or it moved
    {!Graph.next_id} (consumed ids that replay must consume too), [None]
    when it left nothing to replay.  A [PROFILE] statement is journaled
    without its prefix.  Every journaling path, the server's included,
    decides by this one rule. *)
val journal_entry_of :
  config:Config.t -> src:string -> before:Graph.t -> Api.result -> journal_entry option

val create : ?config:Config.t -> Graph.t -> t
val graph : t -> Graph.t
val config : t -> Config.t

(** [set_config s config] swaps the session configuration.  Changing any
    field that affects compilation or plan choice (mode, order, match
    mode, planner, stats collection, dialect) invalidates
    the plan cache; rebinding parameters does not.  Changing
    [plan_cache_capacity] rebuilds the cache. *)
val set_config : t -> Config.t -> unit

(** Plan-cache hit / miss / eviction / invalidation counters. *)
val cache_stats : t -> Plan_cache.stats

(** [register_prop_index s ~label ~key] builds the (label, key) property
    index on the session graph and invalidates the plan cache, so no
    compiled statement keeps serving a plan chosen without the index. *)
val register_prop_index : t -> label:string -> key:string -> unit

(** [set_journal s sink] attaches (or, with [None], detaches) the
    journal sink.  While attached, update-counter collection is forced
    on (the counters decide what to journal).  Inside a transaction,
    entries buffer in the innermost open frame, also in one begun
    before the sink was attached, so a rollback journals nothing.  A
    sink that raises makes the triggering statement or commit fail
    without advancing the graph. *)
val set_journal : t -> (journal_entry list -> unit) option -> unit

(** Transaction depth: 0 outside any transaction. *)
val depth : t -> int

val in_transaction : t -> bool
val begin_tx : t -> unit

(** [commit s] pops one transaction level.  At the outermost level the
    buffered journal entries are flushed to the sink first; if the flush
    fails, the transaction is rolled back to its snapshot and the error
    returned (all-or-nothing durability). *)
val commit : t -> (unit, string) result

val rollback : t -> (unit, string) result

(** [run s src] executes one statement against the session graph —
    recognising EXPLAIN / PROFILE prefixes — and returns the full
    {!Api.result} (table, update counters, optional plan and profile);
    the graph advances only on success (statement-level atomicity).

    Statements compile through the session's LRU plan cache
    ({!Config.t.plan_cache_capacity}): a repeat execution of the same
    normalized statement text under the same config skips lexing,
    parsing, validation and match planning, resolving the current
    [config.params] against the cached compiled statement.  Under
    EXPLAIN / PROFILE the rendered plan gains a trailing
    ["plan cache: hit|miss"] line. *)
val run : t -> string -> (Api.result, Errors.t) result

(** [prepare s src] compiles [src] through the session's plan cache
    without executing it: a repeat call with the same normalized
    statement text under the same config skips lexing, parsing and
    validation.  This is how the server classifies incoming statements
    (read vs update) without paying a parse per request. *)
val prepare : t -> string -> (Api.prepared, Errors.t) result

(** [advance_bulk s ~src ~stats graph'] journals one externally-applied
    bulk load — [src] is its frame payload (the bulk loader's line
    format, not Cypher), [stats] its net update counters — and advances
    the session graph to [graph'].  Journaling follows the same
    discipline as statements: write-ahead flush outside a transaction,
    and the graph does not move when that flush fails; buffered until
    the outermost commit inside one, and dropped by a rollback.  The
    entry carries [je_kind = `Bulk] so recovery replays it through the
    bulk loader instead of the parser. *)
val advance_bulk :
  t -> src:string -> stats:Stats.t -> Graph.t -> (unit, Errors.t) result

(** [reset s] drops the graph, any open transactions, and any buffered
    journal entries. *)
val reset : t -> unit

(** [run_on s graph src] compiles [src] through the session's plan
    cache and executes it against [graph] instead of the session graph;
    the session does not advance and nothing is journaled.
    Update-counter collection is forced on, so the caller can tell from
    the result's counters whether the statement changed [graph].  Under
    EXPLAIN / PROFILE the rendered plan gains the cache-status line, as
    with {!run}. *)
val run_on : t -> Graph.t -> string -> (Api.result, Errors.t) result

(** [run_prepared_on s graph p] executes [p], compiled by this
    session's {!prepare}, against [graph] under the session's current
    parameters: the statement as a function of the graph it is given.
    The session does not advance and nothing is journaled.  No
    plan-cache lookup happens, so [p] still runs after the cache has
    evicted it, and the rendered plan carries no cache-status line.
    The result's counters are populated only if [p] was compiled with
    update-counter collection on. *)
val run_prepared_on :
  t -> Graph.t -> Api.prepared -> (Api.result, Errors.t) result

(** [set_graph s g] replaces the session graph with [g].  Fails inside
    a transaction — open snapshots must not survive a reposition. *)
val set_graph : t -> Graph.t -> (unit, string) result
