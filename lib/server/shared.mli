(** Shared server state: the latest committed graph (the {e head}) with
    a version counter, and the single serialized group committer.

    Readers pin [(version, head)] via {!current} — an O(1) snapshot of
    the immutable store — and never block writers.  Writers enqueue an
    unexecuted closure via {!commit}; the first waiter that finds no
    flush in flight becomes the leader, drains the queue, executes the
    batch serially against a working graph stacked on the head, writes
    all resulting journal entries as {e one} sink call (one WAL append
    + one fsync), publishes the new head, and signals every waiter with
    its own outcome.

    Failure isolation: a member whose closure errors is dropped from
    its batch alone; a batch whose flush fails rolls back exactly its
    members (the head never moved, nothing was journaled).  Requests
    arriving during a flush stay unexecuted and are untouched by its
    failure. *)

open Cypher_graph
open Cypher_core

type t

(** Committer counters. *)
type stats = {
  commits : int;  (** transactions committed *)
  flushes : int;  (** batches executed and flushed *)
  max_batch : int;  (** largest number of transactions one flush carried *)
  flush_failures : int;  (** batches rolled back by a failing sink *)
}

(** [create ?sink graph] makes a shared state whose initial head is
    [graph] at version 0.  [sink] (e.g. [Store.append_entries]) is the
    durability hook — one call per batch; omitted, the server runs
    purely in memory. *)
val create : ?sink:(Session.journal_entry list -> unit) -> Graph.t -> t

(** [current t] is the latest committed [(version, head)].  O(1). *)
val current : t -> int * Graph.t

val stats : t -> stats

(** [commit t exec] runs one transaction through the committer,
    blocking until its batch resolves.  [exec head] runs on the
    committer's thread against the graph the transaction is stacked on
    and returns its resulting graph plus the journal entries to write,
    or an error aborting just this member.  Returns the new version. *)
val commit :
  t ->
  (Graph.t -> (Graph.t * Session.journal_entry list, string) result) ->
  (int, string) result
