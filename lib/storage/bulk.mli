(** Bulk loader: two CSV files (nodes, relationships) → graph,
    validated in full before anything is applied, then added as one
    graph batch journaled as one {!Wal} frame, instead of one frame per
    statement.

    Node CSV: required [id] column (the file-local identifier the
    relationship file refers to), optional [labels] column
    ([;]-separated; a lone [-] means no labels), every other column a
    typed property.  Relationship
    CSV: required [src] / [tgt] / [type] columns, every other column a
    typed property.  A failed load — malformed CSV, missing or duplicate
    columns, ragged rows, duplicate node ids, unknown endpoints, a
    closed store — returns a structured error naming file and line and
    leaves the graph untouched.

    Frame payloads use raw CSV ids for relationship endpoints, resolved
    through an {!idmap} threaded across the frames of a replay, so
    replay is immune to the internal-id remapping a snapshot compaction
    performs.  The loader builds its records as it validates the rows
    and never reads its frame back; {!apply_frame} is recovery's
    reader.  See the implementation header for the frame grammar. *)

open Cypher_graph
open Cypher_core

type report = { nodes_created : int; rels_created : int }

(** Raw CSV id → internal node id, threaded across the frames of one
    recovery replay: journals written before a load became one frame
    hold several frames per load, relationships after nodes. *)
type idmap

val create_idmap : unit -> idmap

(** [apply_frame ~ids g payload] applies one bulk frame to [g],
    recording created nodes in [ids] and resolving relationship
    endpoints through it; the frame's entities are added in one
    {!Cypher_graph.Graph.add_batch}, with the ids creating them in line
    order would give.  Returns the new graph and the frame's update
    counters (the journal checksum).  [Error] on a malformed line or an
    unresolvable endpoint.  Recovery replay calls this on [`Bulk]
    journal records with one [ids] shared across the whole replay. *)
val apply_frame :
  ids:idmap -> Graph.t -> string -> (Graph.t * Stats.t, string) result

(** [load_strings session ~nodes ~rels] validates the two CSV images,
    then adds them to [session]'s graph in one {!Session.advance_bulk}:
    one frame, node lines before relationship lines, each in file
    order.  Outside a transaction the frame is written ahead and a
    failed append leaves the graph unchanged; inside one it is buffered
    until the caller's commit, and a rollback drops it with the load.
    A load with no rows journals nothing.  [nodes_name] / [rels_name]
    label error messages (defaults ["<nodes>"] / ["<rels>"]). *)
val load_strings :
  ?nodes_name:string ->
  ?rels_name:string ->
  Session.t ->
  nodes:string ->
  rels:string ->
  (report, Errors.t) result

(** [load_files session ~nodes_path ~rels_path] is {!load_strings} over
    files; errors cite the file paths. *)
val load_files :
  Session.t ->
  nodes_path:string ->
  rels_path:string ->
  (report, Errors.t) result
