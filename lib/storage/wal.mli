(** The write-ahead statement journal: an append-only file of framed
    {!Session.journal_entry} values, one per successfully applied
    graph-changing statement or bulk load.  A frame carries the entry's
    source text, the semantics it ran under, and its update counters as
    a semantic checksum for replay.

    Frame format (text): [%<payload-bytes> <crc32-hex>\n<payload>\n],
    payload = one metadata line + the source.  The CRC-32 covers the
    payload; {!scan_string} accepts the longest valid prefix of whole
    frames, so a crash-torn tail is detected, reported, and truncated
    away by recovery — never silently replayed.

    Encoding writes the entry's mode, order, match mode and parameter
    bindings (a [p=] field, percent-encoded Cypher map literal, omitted
    when empty; bindings must be storable values — an entry whose
    bindings hold a graph entity cannot be encoded) and its kind (a
    [k=b] field for [`Bulk]).  Decoding gives each entry the
    configuration it replays under: {!Config.permissive} with the
    recorded mode, order, match mode and parameters, and counter
    collection on. *)

open Cypher_graph
open Cypher_core

(** Where and why a scan stopped before the end of the input. *)
type torn = {
  t_offset : int;  (** byte offset of the first unusable frame *)
  t_reason : string;
}

(** [encode e] is the full frame for [e], header through trailing
    newline. *)
val encode : Session.journal_entry -> string

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

(** [scan_string s] decodes entries from the front of [s]: the entries
    of the longest valid prefix, the byte length of that prefix, and —
    unless the prefix is all of [s] — where and why the scan stopped.
    Never raises. *)
val scan_string : string -> Session.journal_entry list * int * torn option

(** [read_file path] scans the whole journal file; a missing file is an
    empty journal. *)
val read_file : string -> Session.journal_entry list * int * torn option

(** [truncate_file path n] cuts the journal back to its first [n] bytes
    (dropping a torn tail). *)
val truncate_file : string -> int -> unit

type writer

(** [open_writer ~durability path] opens [path] for appending, creating
    it if needed.  [durability] defaults to {!Config.Fsync}. *)
val open_writer : ?durability:Config.durability -> string -> writer

(** [append w entries] writes the frames of all [entries] with a single
    [write] (a crash can only tear the tail), then — under [Fsync]
    durability — forces them to stable storage before returning. *)
val append : writer -> Session.journal_entry list -> unit

val close_writer : writer -> unit
