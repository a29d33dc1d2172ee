(** Crash recovery: snapshot load + journal replay.

    Recovery rebuilds the last durable state of a database: load the
    snapshot (if any), then re-execute every journal entry on top of
    it, each under the semantics recorded in its frame.  Torn or
    corrupt trailing journal records — the only damage an append-only
    journal can suffer from a crash — are detected by the frame CRC,
    reported precisely (byte offset, reason, bytes dropped) and
    excluded from replay; everything before the tear is recovered.

    Replay is checked, not trusted: each record carries the update
    counters of its original execution, and replay re-derives them.  A
    mismatch means re-execution diverged from the original run — an
    engine-determinism bug, not a storage problem — and recovery fails
    loudly rather than silently reconstructing a different graph.  (Why
    replay is deterministic at all: the snapshot emits entities in id
    order, so the reloaded graph's ids are a monotone remapping of the
    originals, and the engine enumerates in id order — see DESIGN.md.) *)

open Cypher_core
open Cypher_graph

(** The outcome of a successful recovery. *)
type t = {
  graph : Graph.t;  (** the recovered graph *)
  replayed : int;  (** journal records re-executed *)
  snapshot_loaded : bool;
  clean_len : int;  (** byte length of the journal's valid prefix *)
  torn : Wal.torn option;
      (** damage found at the journal tail, if any; the bytes from
          [t_offset] on were not replayed *)
  dropped : int;  (** journal bytes discarded after the tear *)
}

(** [replay base entries] re-executes [entries] in order on top of
    [base], each under its own [je_config], verifying each entry's
    counter checksum.  [Error] on a statement failure or a checksum
    mismatch (both mean replay diverged from the original execution). *)
let replay (base : Graph.t) (entries : Session.journal_entry list) :
    (Graph.t, string) result =
  (* one id map across the whole replay: bulk frames resolve
     relationship endpoints by raw CSV id, and in journals written
     before a load became one frame, a load's relationship batches
     follow its node batches as separate records *)
  let bulk_ids = Bulk.create_idmap () in
  let check i (recorded : Stats.t) (replayed : Stats.t) k =
    if not (Stats.equal replayed recorded) then
      Error
        (Printf.sprintf
           "replay: record %d diverged: journal says %S, replay produced %S" i
           (Stats.footer recorded) (Stats.footer replayed))
    else k ()
  in
  let rec go g i = function
    | [] -> Ok g
    | (e : Session.journal_entry) :: rest -> (
        match e.Session.je_kind with
        | `Bulk -> (
            match Bulk.apply_frame ~ids:bulk_ids g e.Session.je_src with
            | Error m ->
                Error (Printf.sprintf "replay: bulk record %d failed: %s" i m)
            | Ok (g', stats) ->
                check i e.Session.je_stats stats (fun () -> go g' (i + 1) rest))
        | `Statement -> (
            match
              Api.run_string_full ~config:e.Session.je_config g e.Session.je_src
            with
            | Error err ->
                Error
                  (Printf.sprintf "replay: record %d failed: %s" i
                     (Errors.to_string err))
            | Ok res ->
                check i e.Session.je_stats res.Api.r_stats (fun () ->
                    go res.Api.r_graph (i + 1) rest)))
  in
  go base 0 entries

let build ~snapshot ~(wal : Session.journal_entry list * int * Wal.torn option)
    ~(total_len : int) : (t, string) result =
  let entries, clean_len, torn = wal in
  let base, snapshot_loaded =
    match snapshot with Some g -> (g, true) | None -> (Graph.empty, false)
  in
  match replay base entries with
  | Error e -> Error e
  | Ok graph ->
      Ok
        {
          graph;
          replayed = List.length entries;
          snapshot_loaded;
          clean_len;
          torn;
          dropped = total_len - clean_len;
        }

(** [recover_strings ?snapshot ~wal ()] is recovery over in-memory
    images: [snapshot] is a snapshot file image (as produced by
    {!Snapshot.to_string}), [wal] the raw journal bytes.  This is the
    fault-injection surface of fuzz oracle 6 — byte-level damage is
    applied to these strings directly, no filesystem involved. *)
let recover_strings ?snapshot ~(wal : string) () : (t, string) result =
  let snapshot_graph =
    match snapshot with
    | None -> Ok None
    | Some s -> (
        match Snapshot.parse s with Ok g -> Ok (Some g) | Error e -> Error e)
  in
  match snapshot_graph with
  | Error e -> Error e
  | Ok snapshot ->
      build ~snapshot ~wal:(Wal.scan_string wal)
        ~total_len:(String.length wal)

(** [recover_files ~snapshot_path ~wal_path] is recovery from disk;
    missing files mean an empty snapshot / journal (a fresh database
    recovers to the empty graph). *)
let recover_files ~snapshot_path ~wal_path : (t, string) result =
  match Snapshot.read snapshot_path with
  | Error e -> Error e
  | Ok snapshot ->
      let total_len =
        if Sys.file_exists wal_path then (Unix.stat wal_path).Unix.st_size
        else 0
      in
      build ~snapshot ~wal:(Wal.read_file wal_path) ~total_len

(** One-line human summary, e.g.
    ["recovered 12 statements on top of snapshot (dropped 17-byte torn
    tail: truncated payload @ 1043)"]. *)
let describe (r : t) : string =
  let base = if r.snapshot_loaded then " on top of snapshot" else "" in
  let tail =
    match r.torn with
    | None -> ""
    | Some t ->
        Printf.sprintf " (dropped %d-byte torn tail: %s @ %d)" r.dropped
          t.Wal.t_reason t.Wal.t_offset
  in
  Printf.sprintf "recovered %d statement%s%s%s" r.replayed
    (if r.replayed = 1 then "" else "s")
    base tail
