(** Snapshot files: a checksummed, versioned image of a graph.

    A snapshot is the [Dump.to_cypher] script of the graph — a single
    CREATE statement rebuilding it up to entity ids — prefixed by the
    registered property indexes and a header with entity counts and a
    CRC-32 of the body:

    {v
    #cypher-snapshot v1 nodes=<n> rels=<m> crc=<crc32-hex>\n
    // index: <label> <key>\n        (zero or more)
    CREATE ...;\n
    v}

    Index labels and keys are written as the script writes identifiers
    ({!Dump.quote_ident}): bare when plain, backtick-quoted otherwise,
    so a name holding a space or a newline survives the round trip.

    Loading re-registers the indexes on the empty graph and decodes the
    script with [Dump.of_cypher], the writer's own inverse, rather than
    executing it through the query pipeline: the image is self-written
    and CRC-checked, so there is nothing for the lexer, parser,
    validator and CREATE semantics to add but time and heap.  The
    decoder creates entities in file order, exactly as executing the
    CREATE would, and the dump emits them in id order, so the rebuilt
    graph is isomorphic to the original under a monotone id mapping,
    which keeps journal replay on top of it deterministic (see
    DESIGN.md).  Files are written to a temporary sibling and renamed
    into place, so a crash mid-snapshot leaves the previous snapshot
    intact. *)

open Cypher_graph

let version_tag = "#cypher-snapshot v1"

let index_tag = "// index: "

let index_line (label, key) =
  index_tag ^ Dump.quote_ident label ^ " " ^ Dump.quote_ident key

(** [to_string g] renders the snapshot image of [g].
    @raise Invalid_argument on a graph with dangling relationships
    (see {!Dump.to_cypher}). *)
let to_string (g : Graph.t) : string =
  (* one buffer; the CRC field holds a placeholder until the body is in,
     and the body is only read while borrowed as a string *)
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "%s nodes=%d rels=%d crc=" version_tag (Graph.node_count g)
    (Graph.rel_count g);
  let crc_at = Buffer.length buf in
  Buffer.add_string buf "00000000\n";
  let body = Buffer.length buf in
  List.iter (fun ik -> Printf.bprintf buf "%s\n" (index_line ik)) (Graph.prop_index_keys g);
  Dump.add_cypher buf g;
  let img = Buffer.to_bytes buf in
  let crc = Crc32.to_hex (Crc32.digest ~pos:body (Bytes.unsafe_to_string img)) in
  Bytes.blit_string crc 0 img crc_at 8;
  Bytes.unsafe_to_string img

let starts_with s pos prefix =
  pos + String.length prefix <= String.length s
  && String.sub s pos (String.length prefix) = prefix

(* [indexes s pos] reads the index lines heading the body at [pos]: the
   registered (label, key) pairs and the offset the script starts at *)
let indexes s pos =
  let len = String.length s in
  let malformed = Error "snapshot: malformed index line" in
  let rec go acc pos =
    if not (starts_with s pos index_tag) then Ok (List.rev acc, pos)
    else
      match Dump.read_ident s (pos + String.length index_tag) with
      | Ok (label, p) when p < len && s.[p] = ' ' -> (
          match Dump.read_ident s (p + 1) with
          | Ok (key, p) when p = len -> Ok (List.rev ((label, key) :: acc), p)
          | Ok (key, p) when s.[p] = '\n' -> go ((label, key) :: acc) (p + 1)
          | _ -> malformed)
      | _ -> malformed
  in
  go [] pos

(** [parse s] validates and decodes a snapshot image, returning the
    rebuilt graph.  Never raises: version/checksum/count mismatches and
    script errors all come back as [Error]. *)
let parse (s : string) : (Graph.t, string) result =
  (* the body is checked and decoded where it lies, not copied out *)
  let header, body =
    match String.index_opt s '\n' with
    | Some i -> (String.sub s 0 i, i + 1)
    | None -> (s, String.length s)
  in
  let field name =
    let p = " " ^ name ^ "=" in
    List.find_map
      (fun part ->
        let part = " " ^ part in
        let pl = String.length p in
        if String.length part >= pl && String.sub part 0 pl = p then
          Some (String.sub part pl (String.length part - pl))
        else None)
      (String.split_on_char ' ' header)
  in
  if
    String.length header < String.length version_tag
    || String.sub header 0 (String.length version_tag) <> version_tag
  then Error "snapshot: unrecognised header (not a snapshot file?)"
  else
    match (field "nodes", field "rels", field "crc") with
    | Some nodes_s, Some rels_s, Some crc_s -> (
        if Crc32.to_hex (Crc32.digest ~pos:body s) <> crc_s then
          Error "snapshot: body checksum mismatch"
        else
          let decoded =
            Result.bind (indexes s body) (fun (indexes, pos) ->
                let g0 =
                  List.fold_left
                    (fun g (label, key) -> Graph.add_prop_index ~label ~key g)
                    Graph.empty indexes
                in
                Result.map_error
                  (fun e -> "snapshot: " ^ e)
                  (Dump.of_cypher ~pos g0 s))
          in
          match decoded with
          | Error e -> Error e
          | Ok g ->
              let n = Graph.node_count g and m = Graph.rel_count g in
              if
                Some n <> int_of_string_opt nodes_s
                || Some m <> int_of_string_opt rels_s
              then
                Error
                  (Printf.sprintf
                     "snapshot: rebuilt %d nodes / %d rels, header declares \
                      %s / %s"
                     n m nodes_s rels_s)
              else Ok g)
    | _ -> Error "snapshot: malformed header fields"

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

let fsync_dir dir =
  (* best effort: some filesystems refuse fsync on a directory fd *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(** [write path g] writes the snapshot image of [g] to [path]
    atomically: temporary sibling, fsync, rename into place. *)
let write (path : string) (g : Graph.t) : unit =
  let content = to_string g in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let len = String.length content in
      let rec go off =
        if off < len then
          go (off + Unix.write_substring fd content off (len - off))
      in
      go 0;
      Unix.fsync fd);
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

(** [read path] loads a snapshot file; a missing file is [Ok None]. *)
let read (path : string) : (Graph.t option, string) result =
  if not (Sys.file_exists path) then Ok None
  else
    (* [In_channel.input_all] reads the same bytes, but opening the
       wire benchmark's seed-1 store with it peaked 2.4 MB higher
       (VmHWM, OCaml 5.1.1 on x86-64) *)
    let read ic = really_input_string ic (in_channel_length ic) in
    match parse (In_channel.with_open_bin path read) with
    | Ok g -> Ok (Some g)
    | Error e -> Error e
