(** Snapshot files: a checksummed, versioned image of a graph, built on
    {!Dump.to_cypher}.  Header line (version, entity counts, body
    CRC-32), then the registered property indexes, then a single CREATE
    statement rebuilding the graph.  Written atomically (temporary
    sibling + rename), loaded by decoding the script with
    {!Dump.of_cypher} (not by executing it). *)

open Cypher_graph

(** [to_string g] renders the snapshot image of [g].
    @raise Invalid_argument on a graph with dangling relationships
    (see {!Dump.to_cypher}). *)
val to_string : Graph.t -> string

(** [parse s] validates and decodes a snapshot image, returning the
    rebuilt graph (isomorphic to the dumped one).  Never raises:
    version/checksum/count mismatches and script errors all come back
    as [Error]. *)
val parse : string -> (Graph.t, string) result

(** [write path g] writes the snapshot image of [g] to [path]
    atomically: temporary sibling, fsync, rename into place. *)
val write : string -> Graph.t -> unit

(** [read path] loads a snapshot file; a missing file is [Ok None]. *)
val read : string -> (Graph.t option, string) result
