(** The write-ahead statement journal: an append-only file of framed
    records, one per successfully applied graph-changing statement.
    Each record carries the statement source text, the semantics it ran
    under, and its update counters as a semantic checksum for replay.

    Frame format (text): [%<payload-bytes> <crc32-hex>\n<payload>\n],
    payload = one metadata line + the statement source.  The CRC-32
    covers the payload; {!scan_string} accepts the longest valid prefix
    of whole records, so a crash-torn tail is detected, reported, and
    truncated away by recovery — never silently replayed. *)

open Cypher_graph
open Cypher_core

type record = {
  src : string;  (** statement source text *)
  stats : Stats.t;  (** update counters recorded at original execution *)
  mode : Config.mode;
  order : Config.order;
  match_mode : Config.match_mode;
  params : Value.t Cypher_util.Maps.Smap.t;
      (** parameter bindings the statement ran under (empty when none);
          encoded as a percent-encoded Cypher map literal in an optional
          [p=] metadata field, so pre-parameter journals still decode.
          Bindings must be storable values — a record whose bindings
          contain a graph entity cannot be encoded. *)
  kind : Session.journal_kind;
      (** how [src] replays: [`Statement] re-executes Cypher source
          through the [Api]; [`Bulk] applies a bulk-load frame via
          [Bulk.apply_frame].  Encoded as an optional [k=b] metadata
          field, so pre-bulk journals still decode. *)
}

(** Where and why a scan stopped before the end of the input. *)
type torn = {
  t_offset : int;  (** byte offset of the first unusable record *)
  t_reason : string;
}

(** [encode r] is the full frame for [r], header through trailing
    newline. *)
val encode : record -> string

(** Percent-encoding used for metadata values that must stay single-line
    and space-free (['%'], [' '], CR and LF become [%XX]).  Shared with
    the bulk loader's frame line format. *)
val pct_encode : string -> string

(** [add_pct_encoded buf s] appends [pct_encode s] to [buf]. *)
val add_pct_encoded : Buffer.t -> string -> unit

(** Inverse of {!pct_encode}; [None] on a malformed escape. *)
val pct_decode : string -> string option

(** [encode_params m] is the [p=] field value for the bindings [m]: a
    percent-encoded {!Dump.value_literal} map.  Shared with the bulk
    loader's property fields.
    @raise Invalid_argument when a binding holds a graph entity. *)
val encode_params : Value.t Cypher_util.Maps.Smap.t -> string

(** Inverse of {!encode_params} via {!Dump.read_value}, building names
    and scalars through [share]; [None] on a bad escape or anything but
    a map literal. *)
val decode_params :
  ?share:Share.t -> string -> Value.t Cypher_util.Maps.Smap.t option

(** [scan_string s] parses records from the front of [s]: the records of
    the longest valid prefix, the byte length of that prefix, and —
    unless the prefix is all of [s] — where and why the scan stopped.
    Never raises. *)
val scan_string : string -> record list * int * torn option

(** [read_file path] scans the whole journal file; a missing file is an
    empty journal. *)
val read_file : string -> record list * int * torn option

(** [truncate_file path n] cuts the journal back to its first [n] bytes
    (dropping a torn tail). *)
val truncate_file : string -> int -> unit

type writer

(** [open_writer ~durability path] opens [path] for appending, creating
    it if needed.  [durability] defaults to {!Config.Fsync}. *)
val open_writer : ?durability:Config.durability -> string -> writer

(** [append w records] writes all [records] with a single [write] (a
    crash can only tear the tail), then — under [Fsync] durability —
    forces them to stable storage before returning. *)
val append : writer -> record list -> unit

val close_writer : writer -> unit

(** A journal record for a session journal entry. *)
val record_of_entry : Session.journal_entry -> record
