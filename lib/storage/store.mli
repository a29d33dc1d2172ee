(** A database on disk: a directory holding a snapshot ([snapshot.cy])
    and a statement journal ([journal.wal]), wired to a {!Session} whose
    journal sink write-aheads every graph-changing statement.  See
    {!Recovery} for the crash model. *)

open Cypher_core

type t

(** [open_db ?config dir] opens (creating if needed) the database at
    [dir], recovers its graph — truncating a crash-torn journal tail
    after recording it in {!recovery} — and returns the store paired
    with a session wired for write-ahead journaling.  [config] (default
    {!Config.revised}) sets the session semantics and journal
    durability. *)
val open_db : ?config:Config.t -> string -> (t * Session.t, string) result

(** What {!open_db} found: recovered statement count, torn-tail report,
    whether a snapshot was loaded. *)
val recovery : t -> Recovery.t

val dir : t -> string

(** [append_entries t entries] journals [entries] as one WAL frame
    batch — a single [write] + (under [Fsync]) a single fsync, whatever
    the batch size.  It is the journal sink of the session {!open_db}
    returns, and the server's group committer batches the entries of
    several concurrently committing transactions into one call.
    No-op on [[]]; raises [Errors.Error] when the store is closed. *)
val append_entries : t -> Session.journal_entry list -> unit

(** [compact t session] folds the journal into a fresh snapshot of the
    session's current graph and empties the journal.  Refused inside a
    transaction. *)
val compact : t -> Session.t -> (unit, string) result

(** [close t] closes the journal.  The session keeps working in memory,
    but further update statements fail their journal append — detach
    the sink ([Session.set_journal session None]) to keep using it
    non-durably. *)
val close : t -> unit
