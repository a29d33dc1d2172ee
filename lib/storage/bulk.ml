(** Bulk loader: CSV files → graph, bypassing the parser.

    The paper motivates MERGE by bulk import ("a graph database may be
    initially populated by importing data from a relational database or
    a CSV file", Section 6), but routing a million-entity import through
    per-statement Cypher — one parse, one plan, one journal frame and
    one fsync per entity — is the wrong tool.  This module is the right
    one: it validates two CSV files (nodes, then relationships) in
    full, row by row as {!Cypher_csv.Csv.fold_table} parses them, then
    adds them as one graph batch, journaled as one {!Wal} frame (a
    [k=b] record) instead of one per statement.

    {2 CSV formats}

    Nodes: the header must contain an [id] column (the file-local
    identifier relationships refer to); an optional [labels] column
    holds [;]-separated labels, a lone [-] meaning none (the frame's
    absent marker); every other column is a property, typed
    like any CSV import ({!Cypher_csv.Csv.type_field} — empty fields are
    null and store nothing).

    Relationships: the header must contain [src], [tgt] and [type]
    columns; [src]/[tgt] are node-file [id] values, [type] the
    relationship type; every other column is a property.

    {2 Atomicity}

    Both files are parsed and validated completely — empty file, CSV
    syntax, missing required columns, ragged rows, duplicate node ids,
    unknown endpoints all fail with a structured error naming file and
    line, the first fault in file order — before the session is
    touched.  The load then moves the session in one
    {!Session.advance_bulk}, which leaves the graph where it was when
    the journal append fails, and buffers the frame in the caller's
    transaction when one is open; so a failed load never leaves a
    partial graph behind.

    {2 Frame format and replay}

    A load journals one payload of lines, its node lines first, then its
    relationship lines, each in file order:

    {v
    N <id> <labels|-> <props|->
    R <src> <tgt> <type> <props|->
    v}

    with every field percent-encoded ({!Wal.pct_encode}), labels
    [;]-joined and properties rendered as a Cypher map literal
    ({!Dump.value_literal}, read back with {!Dump.read_value}, as the
    journal's parameter bindings are) — [-] marks an absent value.  Relationship
    endpoints are the {e raw} CSV ids, not internal node ids: snapshot
    compaction remaps internal ids (monotonically), so a frame that
    hard-coded them would silently rebind after a compact.  Instead
    {!apply_frame} threads an id map (raw id → created node) across the
    frames of a replay; a later load reusing a raw id simply overwrites
    the entry, which is exactly the binding its own relationships saw at
    original execution.  Journals written before a load became one frame
    hold one frame per batch of rows, node batches before relationship
    batches; joined with newlines, those frames are the one frame the
    load writes now, and they replay through the same map.

    {2 Load and replay}

    The loader does not read its frame back, and holds no file's rows.
    One fold over each file validates each row as it is parsed, interns
    its labels, type, property map and scalars through one {!Share}
    table, builds its record — node row [i] gets id [next_id + i],
    relationship row [j] [next_id + n_nodes + j] — and writes its frame
    line.  The records go into the graph in one {!Graph.add_batch}.  {!apply_frame} is recovery's reader only.  The
    invariant that joins the two paths — replaying a load's frame on the
    same base rebuilds the graph the load built, down to the ids, the
    snapshot bytes and the bits of every float — is checked by the "a
    load replays to itself" tests.  Where the frame text is lossy the
    loader stores what replay reads: a lone [-] label field is no
    labels, and every nan is {!Dump.nan}. *)

open Cypher_graph
open Cypher_core
open Cypher_util.Maps
module Csv = Cypher_csv.Csv

type report = { nodes_created : int; rels_created : int }

(** Raw CSV id → internal node id, threaded across the frames of one
    recovery replay. *)
type idmap = (string, Graph.node_id) Hashtbl.t

let create_idmap () : idmap = Hashtbl.create 1024

(* ------------------------------------------------------------------ *)
(* Errors                                                             *)
(* ------------------------------------------------------------------ *)

let fail_at file line fmt =
  Printf.ksprintf
    (fun msg ->
      Errors.fail
        (Errors.Update_error (Printf.sprintf "bulk load (%s:%d): %s" file line msg)))
    fmt

let fail_file file fmt =
  Printf.ksprintf
    (fun msg ->
      Errors.fail
        (Errors.Update_error (Printf.sprintf "bulk load (%s): %s" file msg)))
    fmt

(* ------------------------------------------------------------------ *)
(* Frame fields                                                       *)
(* ------------------------------------------------------------------ *)

(* [-], or the map literal percent-encoded as {!Wal.encode_params}
   would; [lit] is scratch space for the literal *)
let add_props_field buf ~lit props =
  if Props.is_empty props then Buffer.add_char buf '-'
  else begin
    Buffer.clear lit;
    Dump.add_props lit props;
    Wal.add_pct_encoded buf (Buffer.contents lit)
  end

let dec_opt s =
  if s = "-" then Some "" else Wal.pct_decode s

let dec_props share s : Props.t option =
  if s = "-" then Some Props.empty
  else Option.map (Share.props share) (Wal.decode_params ~share s)

let split_labels s = List.filter (fun l -> l <> "") (String.split_on_char ';' s)

(* ------------------------------------------------------------------ *)
(* Frame application (recovery replay)                                *)
(* ------------------------------------------------------------------ *)

(** [apply_frame ~ids g payload] applies one bulk frame to [g],
    recording created nodes in [ids] and resolving relationship
    endpoints through it.  Returns the new graph and the frame's net
    update counters (the journal checksum).  [Error] on a malformed
    line or an endpoint [ids] cannot resolve: journal corruption the
    CRC did not see. *)
let apply_frame ~(ids : idmap) (g : Graph.t) (payload : string) :
    (Graph.t * Stats.t, string) result =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let decode what dec s =
    match dec s with Some v -> v | None -> bad "bad %s field %S" what s
  in
  (* the frame's entities, newest first, with the ids creating them in
     line order would assign; the graph is built from them in one batch *)
  let next = ref (Graph.next_id g) and nodes = ref [] and rels = ref [] in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  (* equal label sets, types, keys and scalars are stored once *)
  let share = Share.create () in
  try
    List.iter
      (fun line ->
        if line <> "" then
          match String.split_on_char ' ' line with
          | [ "N"; id; labels; props ] ->
              let id = decode "id" Wal.pct_decode id in
              let labels = split_labels (decode "labels" dec_opt labels) in
              let n_props = decode "props" (dec_props share) props in
              let n_id = fresh () in
              nodes := { Graph.n_id; labels = Share.labels share labels; n_props } :: !nodes;
              Hashtbl.replace ids id n_id
          | [ "R"; src; tgt; ty; props ] ->
              let src = decode "src" Wal.pct_decode src in
              let tgt = decode "tgt" Wal.pct_decode tgt in
              let r_type = Share.name share (decode "type" Wal.pct_decode ty) in
              let r_props = decode "props" (dec_props share) props in
              let resolve what raw =
                match Hashtbl.find_opt ids raw with
                | Some nid -> nid
                | None -> bad "unresolved %s node id %S" what raw
              in
              let src = resolve "source" src in
              let tgt = resolve "target" tgt in
              rels := { Graph.r_id = fresh (); src; tgt; r_type; r_props } :: !rels
          | _ -> bad "malformed bulk frame line %S" line)
      (String.split_on_char '\n' payload);
    let nodes = List.rev !nodes and rels = List.rev !rels in
    let g = Graph.add_batch g nodes rels in
    (* following the net-diff convention of [Stats]: properties and
       labels of created entities fold into the created counts *)
    let stats =
      {
        Stats.empty with
        Stats.nodes_created = List.length nodes;
        rels_created = List.length rels;
      }
    in
    Ok (g, stats)
  with Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

(* [Csv.fold_table] with the header as a list, and its faults and an
   empty file reported as [file]'s *)
let fold_file file header init src =
  match Csv.fold_table (fun line names -> header line (Array.to_list names)) init src with
  | Some (_, acc) -> acc
  | None -> fail_file file "empty file (expected a header row)"
  | exception Csv.Csv_error e -> fail_at file e.Csv.line "%s" e.Csv.message

(** Positions of the required/special columns, plus [(column, position)]
    for the property columns. *)
let split_header file line header ~required ~special =
  List.iter
    (fun c ->
      if not (List.mem c header) then
        fail_at file line "missing required column %S (header is %s)" c
          (String.concat "," header))
    required;
  let dup =
    List.find_opt
      (fun c -> List.length (List.filter (String.equal c) header) > 1)
      header
  in
  (match dup with
  | Some c -> fail_at file line "duplicate column %S" c
  | None -> ());
  List.mapi (fun i c -> (c, i)) header
  |> List.filter (fun (c, _) -> not (List.mem c special))

let pos header c =
  let rec go i = function
    | [] -> invalid_arg "pos"
    | h :: _ when h = c -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 header

(* empty fields are null and store nothing; a nan frames as
   [(0.0 / 0.0)], which replay reads as [Dump.nan], so any nan the CSV
   spells ("nan", "-nan") is stored as that one *)
let typed_props share props_cols row : Props.t =
  Share.props share
    (List.fold_left
       (fun m (c, i) ->
         match Csv.type_field row.(i) with
         | Value.Null -> m
         | Value.Float f when Float.is_nan f -> Smap.add c (Value.Float Dump.nan) m
         | v -> Smap.add c (Share.value share v) m)
       Smap.empty props_cols)

(* the frame's lines are newline-separated *)
let start_line buf = if Buffer.length buf > 0 then Buffer.add_char buf '\n'

(** The node file in one fold: each row is checked as it is parsed, its
    record built with the id [fresh ()] gives, its raw id entered in the
    returned table (raw id → node id, line) and its frame line written
    to [buf]. *)
let load_nodes share ~buf ~lit ~fresh file src =
  let ids = Hashtbl.create 1024 in
  let node hline header =
    let props_cols =
      split_header file hline header ~required:[ "id" ] ~special:[ "id"; "labels" ]
    in
    let id_i = pos header "id" in
    let labels_i = if List.mem "labels" header then Some (pos header "labels") else None in
    fun line row nodes ->
      let id = row.(id_i) in
      if id = "" then fail_at file line "empty node id";
      let n_id = fresh () in
      (match Hashtbl.find_opt ids id with
      | Some (_, first) ->
          fail_at file line "duplicate node id %S (first seen at line %d)" id first
      | None -> Hashtbl.add ids id (n_id, line));
      let labels =
        match labels_i with None -> [] | Some i -> split_labels row.(i)
      in
      let n_props = typed_props share props_cols row in
      start_line buf;
      Buffer.add_string buf "N ";
      Wal.add_pct_encoded buf id;
      Buffer.add_char buf ' ';
      (match labels with
      | [] -> Buffer.add_char buf '-'
      | l :: rest ->
          (* [;] needs no escape, so each label encodes on its own *)
          Wal.add_pct_encoded buf l;
          List.iter
            (fun l ->
              Buffer.add_char buf ';';
              Wal.add_pct_encoded buf l)
            rest);
      Buffer.add_char buf ' ';
      add_props_field buf ~lit n_props;
      (* a lone [-] label frames as the field [-], which replay reads
         as "no labels" *)
      let labels = Share.labels share (if labels = [ "-" ] then [] else labels) in
      { Graph.n_id; labels; n_props } :: nodes
  in
  let nodes = fold_file file node [] src in
  (List.rev nodes, ids)

(** The relationship file in one fold: each row is checked as it is
    parsed, its endpoints resolved through [ids], its record built with
    the id [fresh ()] gives and its frame line written to [buf]. *)
let load_rels share ~buf ~lit ~ids ~fresh file src =
  let rel hline header =
    let props_cols =
      split_header file hline header
        ~required:[ "src"; "tgt"; "type" ]
        ~special:[ "src"; "tgt"; "type" ]
    in
    let src_i = pos header "src" in
    let tgt_i = pos header "tgt" in
    let ty_i = pos header "type" in
    fun line row rels ->
      let s = row.(src_i) and t = row.(tgt_i) and ty = row.(ty_i) in
      if ty = "" then fail_at file line "empty relationship type";
      let node what id =
        match Hashtbl.find_opt ids id with
        | Some (n_id, _) -> n_id
        | None -> fail_at file line "unknown %s node id %S" what id
      in
      let src = node "source" s in
      let tgt = node "target" t in
      let r_props = typed_props share props_cols row in
      start_line buf;
      Buffer.add_string buf "R ";
      Wal.add_pct_encoded buf s;
      Buffer.add_char buf ' ';
      Wal.add_pct_encoded buf t;
      Buffer.add_char buf ' ';
      Wal.add_pct_encoded buf ty;
      Buffer.add_char buf ' ';
      add_props_field buf ~lit r_props;
      { Graph.r_id = fresh (); src; tgt; r_type = Share.name share ty; r_props } :: rels
  in
  List.rev (fold_file file rel [] src)

(** [load_strings session ~nodes ~rels] validates both CSV images, then
    applies them as one batch journaled as one frame.
    [nodes_name]/[rels_name] label errors (default ["<nodes>"],
    ["<rels>"]). *)
let load_strings ?(nodes_name = "<nodes>") ?(rels_name = "<rels>")
    (session : Session.t) ~(nodes : string) ~(rels : string) :
    (report, Errors.t) result =
  try
    (* equal labels, types, key sets and scalars are stored once *)
    let share = Share.create () in
    let buf = Buffer.create 65536 and lit = Buffer.create 256 in
    (* node rows take the next ids in file order, then relationship rows *)
    let next = ref (Graph.next_id (Session.graph session)) in
    let fresh () =
      let id = !next in
      incr next;
      id
    in
    let nodes, ids = load_nodes share ~buf ~lit ~fresh nodes_name nodes in
    let rels = load_rels share ~buf ~lit ~ids ~fresh rels_name rels in
    let n = Hashtbl.length ids and m = List.length rels in
    let report = { nodes_created = n; rels_created = m } in
    (* a relationship needs an endpoint, so an empty node file is an
       empty load, which journals nothing *)
    if n = 0 then Ok report
    else
      let g = Graph.add_batch (Session.graph session) nodes rels in
      (* following the net-diff convention of [Stats]: properties and
         labels of created entities fold into the created counts *)
      let stats = { Stats.empty with Stats.nodes_created = n; rels_created = m } in
      match Session.advance_bulk session ~src:(Buffer.contents buf) ~stats g with
      | Ok () -> Ok report
      | Error e -> Error (Errors.Update_error ("bulk load: " ^ Errors.to_string e))
  with Errors.Error e -> Error e

(** [load_files session ~nodes_path ~rels_path] is {!load_strings} over
    files; errors cite the file paths. *)
let load_files (session : Session.t) ~nodes_path ~rels_path :
    (report, Errors.t) result =
  let read path =
    In_channel.with_open_bin path (fun ic -> really_input_string ic (in_channel_length ic))
  in
  match (read nodes_path, read rels_path) with
  | nodes, rels ->
      load_strings ~nodes_name:nodes_path ~rels_name:rels_path session ~nodes
        ~rels
  | exception Sys_error m -> Error (Errors.Update_error ("bulk load: " ^ m))
