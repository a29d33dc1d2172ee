(** Crash recovery: snapshot load + checked journal replay.  Torn or
    corrupt journal tails are detected by the frame CRC, reported
    precisely, and excluded; each replayed record's update counters must
    match the journaled ones (replay is checked, not trusted). *)

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
    [base], each under its own [je_config] (a decoded entry's replay
    configuration, see {!Wal}), verifying each entry's counter
    checksum.  [Error] on a statement failure or checksum mismatch
    (replay diverged from the original execution). *)
val replay : Graph.t -> Session.journal_entry list -> (Graph.t, string) result

(** [recover_strings ?snapshot ~wal ()] is recovery over in-memory
    images (the fault-injection surface of fuzz oracle 6): [snapshot]
    a {!Snapshot.to_string} image, [wal] raw journal bytes. *)
val recover_strings : ?snapshot:string -> wal:string -> unit -> (t, string) result

(** [recover_files ~snapshot_path ~wal_path] is recovery from disk;
    missing files mean an empty snapshot / journal. *)
val recover_files :
  snapshot_path:string -> wal_path:string -> (t, string) result

(** One-line human summary of a recovery. *)
val describe : t -> string
