(** A database on disk: directory with a snapshot and a statement
    journal, wired to a {!Session}.

    Layout: [<dir>/snapshot.cy] (a {!Snapshot} image, absent until the
    first {!compact}) and [<dir>/journal.wal] (the {!Wal} of statements
    applied since that snapshot).  {!open_db} recovers the graph from
    both (truncating a crash-torn journal tail after reporting it),
    opens the journal for appending, and hands back a session whose
    journal sink ({!append_entries}) writes every graph-changing
    statement's journal entry ahead of the graph; from then
    on the in-memory session and the on-disk state move in lockstep —
    killing the process at any instant loses at most the statement
    whose journal append had not completed, and that statement's graph
    effects with it (the append happens first).

    {!compact} folds the journal into a fresh snapshot: write the
    current graph image atomically (rename commits it), then reset the
    journal to empty.  A crash between the two steps leaves the old
    journal next to the new snapshot, and {!open_db} replays those
    already-folded statements a second time.  The counter checksum
    catches a replay only when it changes what a statement counts: a
    [MERGE ALL] that created the first time finds its own work the
    second time, and the open fails ("record N diverged").  A replay
    that counts the same is not caught: two [CREATE] records reopen
    silently as four nodes.  ROADMAP item 18 has the reproduction and
    the fix (a commit sequence number in the snapshot header and in
    each record). *)

open Cypher_core

type t = {
  dir : string;
  snapshot_path : string;
  wal_path : string;
  durability : Config.durability;
  mutable writer : Wal.writer option;
  recovery : Recovery.t;  (** what {!open_db} found *)
}

let snapshot_file = "snapshot.cy"
let journal_file = "journal.wal"
let recovery t = t.recovery
let dir t = t.dir

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** [append_entries t entries] journals [entries] as one WAL frame
    batch: a single [write] + (under [Fsync]) a single fsync, whatever
    the batch size.  It is both the session's journal sink and the
    group committer's durability call — the server batches the entries
    of several concurrently committing transactions into one call here.
    A closed store fails with a structured error, not a bare [Failure],
    so the session reports it as the triggering statement's failure. *)
let append_entries t (entries : Session.journal_entry list) : unit =
  match (entries, t.writer) with
  | [], _ -> ()
  | _, Some w -> Wal.append w entries
  | _, None ->
      Errors.fail
        (Errors.Update_error
           (Printf.sprintf
              "store at %s is closed: reopen it or detach the journal \
               (Session.set_journal session None) to continue in memory"
              t.dir))

(** [open_db ?config dir] opens (creating if needed) the database at
    [dir], recovers its graph, and returns the store paired with a
    session wired for write-ahead journaling.  [config] (default
    {!Config.revised}) sets the session semantics and the journal
    durability.  A torn journal tail is truncated on disk here, after
    being recorded in the {!recovery} report. *)
let open_db ?(config = Config.revised) dir : (t * Session.t, string) result =
  try
    mkdir_p dir;
    if not (Sys.is_directory dir) then
      Error (Printf.sprintf "open_db: %s is not a directory" dir)
    else
      let snapshot_path = Filename.concat dir snapshot_file in
      let wal_path = Filename.concat dir journal_file in
      match Recovery.recover_files ~snapshot_path ~wal_path with
      | Error e -> Error e
      | Ok recovery ->
          if recovery.Recovery.torn <> None then
            Wal.truncate_file wal_path recovery.Recovery.clean_len;
          let writer =
            Wal.open_writer ~durability:config.Config.durability wal_path
          in
          let t =
            {
              dir;
              snapshot_path;
              wal_path;
              durability = config.Config.durability;
              writer = Some writer;
              recovery;
            }
          in
          let session = Session.create ~config recovery.Recovery.graph in
          Session.set_journal session (Some (append_entries t));
          Ok (t, session)
  with
  | Unix.Unix_error (err, fn, arg) ->
      Error (Printf.sprintf "open_db: %s(%s): %s" fn arg (Unix.error_message err))
  | Sys_error m -> Error ("open_db: " ^ m)

(** [compact t session] folds the journal into a fresh snapshot of the
    session's current graph and empties the journal.  Refused inside a
    transaction (uncommitted statements must not reach the snapshot). *)
let compact (t : t) (session : Session.t) : (unit, string) result =
  if Session.in_transaction session then
    Error "compact: transaction in progress"
  else if t.writer = None then Error "compact: store is closed"
  else
    try
      Snapshot.write t.snapshot_path (Session.graph session);
      Option.iter Wal.close_writer t.writer;
      Wal.truncate_file t.wal_path 0;
      t.writer <- Some (Wal.open_writer ~durability:t.durability t.wal_path);
      Ok ()
    with
    | Unix.Unix_error (err, fn, arg) ->
        Error
          (Printf.sprintf "compact: %s(%s): %s" fn arg
             (Unix.error_message err))
    | Invalid_argument m | Sys_error m -> Error ("compact: " ^ m)

(** [close t] closes the journal.  The session keeps working in memory,
    but further update statements fail their journal append — detach
    the sink ([Session.set_journal session None]) to keep using it
    non-durably. *)
let close (t : t) : unit =
  Option.iter Wal.close_writer t.writer;
  t.writer <- None
