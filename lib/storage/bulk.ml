(** Streaming bulk loader: CSV files → graph, bypassing the parser.

    The paper motivates MERGE by bulk import ("a graph database may be
    initially populated by importing data from a relational database or
    a CSV file", Section 6), but routing a million-entity import through
    per-statement Cypher — one parse, one plan, one journal frame and
    one fsync per entity — is the wrong tool.  This module is the right
    one: it validates two CSV files (nodes, then relationships) in
    full, then applies them in batches, journaling one {!Wal} frame per
    batch ([k=b] records) instead of one per statement.

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

    Both files are parsed and validated completely — empty file, missing
    required columns, ragged rows, duplicate node ids, unknown endpoints
    all fail with a structured error naming file and line — before the
    first entity is created, and application runs inside a transaction,
    so a failed load never leaves a partial graph behind.

    {2 Frame format and replay}

    Each batch journals as one payload of lines

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
    original execution.

    {2 Load and replay}

    The loader does not read its frames back: validation interns every
    row's labels, type, property map and scalars through one {!Share}
    table, and each batch becomes node and relationship records
    directly — node row [i] gets id [next_id + i], relationship row [j]
    [next_id + n_nodes + j] — in one {!Graph.add_batch}, while the same
    rows are written out as the batch's frame text.  {!apply_frame} is
    recovery's reader only.  The invariant that joins the two paths —
    replaying a load's frames on the same base rebuilds the graph the
    load built, down to the ids, the snapshot bytes and the bits of
    every float — is checked by the "a load replays to itself" tests.
    Where the frame text is lossy the loader stores what replay reads:
    a lone [-] label field is no labels, and every nan is {!Dump.nan}. *)

open Cypher_graph
open Cypher_core
open Cypher_util.Maps
module Csv = Cypher_csv.Csv

type report = {
  nodes_created : int;
  rels_created : int;
  batches : int;  (** journal frames written *)
}

(** Raw CSV id → internal node id, threaded across the frames of one
    recovery replay. *)
type idmap = (string, Graph.node_id) Hashtbl.t

let create_idmap () : idmap = Hashtbl.create 1024
let default_batch_size = 10_000

(* Structured-error carrier for the load loop: lets the transaction body
   unwind through rollback before the error surfaces as a [result]. *)
exception Abort of Errors.t

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
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

(** A validated row: the raw fields it frames as, and the interned
    pieces of the record it becomes. *)
type vnode = {
  vn_id : string;
  vn_labels : string list;  (** as framed, [;]-joined *)
  vn_label_set : Sset.t;
  vn_props : Props.t;
}

type vrel = {
  vr_src : string;
  vr_tgt : string;  (** raw ids, as framed *)
  vr_src_row : int;
  vr_tgt_row : int;  (** their rows in the node file, from 0 *)
  vr_ty : string;
  vr_props : Props.t;
}

let parse_csv file src =
  match Csv.parse_numbered src with
  | [] -> fail_file file "empty file (expected a header row)"
  | header :: rows -> (header, rows)
  | exception Csv.Csv_error e -> fail_at file e.Csv.line "%s" e.Csv.message

(** Positions of the required/special columns, plus [(column, position)]
    for the property columns. *)
let split_header file (line, header) ~required ~special =
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

(* the row's fields, once its width matches the header's *)
let fields file width (line, row) =
  let row = Array.of_list row in
  let n = Array.length row in
  if n <> width then
    fail_at file line "row has %d fields, header has %d" n width;
  row

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

let validate_nodes share file src : vnode list =
  let header, rows = parse_csv file src in
  let hline, hcols = header in
  let props_cols =
    split_header file (hline, hcols) ~required:[ "id" ]
      ~special:[ "id"; "labels" ]
  in
  let id_i = pos hcols "id" in
  let labels_i = if List.mem "labels" hcols then Some (pos hcols "labels") else None in
  let width = List.length hcols in
  let seen = Hashtbl.create (List.length rows) in
  List.map
    (fun (line, row) ->
      let row = fields file width (line, row) in
      let id = row.(id_i) in
      if id = "" then fail_at file line "empty node id";
      (match Hashtbl.find_opt seen id with
      | Some first ->
          fail_at file line "duplicate node id %S (first seen at line %d)" id
            first
      | None -> Hashtbl.add seen id line);
      let labels =
        match labels_i with None -> [] | Some i -> split_labels row.(i)
      in
      {
        vn_id = id;
        vn_labels = labels;
        (* a lone [-] label frames as the field [-], which replay reads
           as "no labels" *)
        vn_label_set = Share.labels share (if labels = [ "-" ] then [] else labels);
        vn_props = typed_props share props_cols row;
      })
    rows

let validate_rels share file ~(node_rows : (string, int) Hashtbl.t) src : vrel list =
  let header, rows = parse_csv file src in
  let hline, hcols = header in
  let props_cols =
    split_header file (hline, hcols)
      ~required:[ "src"; "tgt"; "type" ]
      ~special:[ "src"; "tgt"; "type" ]
  in
  let src_i = pos hcols "src" in
  let tgt_i = pos hcols "tgt" in
  let ty_i = pos hcols "type" in
  let width = List.length hcols in
  List.map
    (fun (line, row) ->
      let row = fields file width (line, row) in
      let s = row.(src_i) and t = row.(tgt_i) and ty = row.(ty_i) in
      if ty = "" then fail_at file line "empty relationship type";
      let node_row what id =
        match Hashtbl.find_opt node_rows id with
        | Some i -> i
        | None -> fail_at file line "unknown %s node id %S" what id
      in
      let vr_src_row = node_row "source" s in
      let vr_tgt_row = node_row "target" t in
      {
        vr_src = s;
        vr_tgt = t;
        vr_src_row;
        vr_tgt_row;
        vr_ty = Share.name share ty;
        vr_props = typed_props share props_cols row;
      })
    rows

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

let chunks size l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

(* one frame: its lines, newline-separated, written by [add_line] *)
let frame buf add_line batch =
  Buffer.clear buf;
  List.iteri
    (fun k x ->
      if k > 0 then Buffer.add_char buf '\n';
      add_line x)
    batch;
  Buffer.contents buf

(** [load_strings session ~nodes ~rels] validates and applies the two
    CSV images.  [nodes_name]/[rels_name] label errors (default
    ["<nodes>"], ["<rels>"]). *)
let load_strings ?(batch_size = default_batch_size) ?(nodes_name = "<nodes>")
    ?(rels_name = "<rels>") (session : Session.t) ~(nodes : string)
    ~(rels : string) : (report, Errors.t) result =
  try
    if batch_size <= 0 then invalid_arg "Bulk.load_strings: batch_size";
    (* phase 1: validate everything before touching the graph; equal
       labels, types, key sets and scalars are stored once *)
    let share = Share.create () in
    let vnodes = validate_nodes share nodes_name nodes in
    let node_rows = Hashtbl.create (List.length vnodes) in
    List.iteri (fun i n -> Hashtbl.add node_rows n.vn_id i) vnodes;
    let vrels = validate_rels share rels_name ~node_rows rels in
    (* phase 2: per batch, nodes before relationships, add the records
       and journal the frame.  One transaction: a journal failure (e.g.
       a closed store) rolls everything back, and the outermost commit
       flushes all frames with a single sink call, hence a single
       journal write *)
    Session.begin_tx session;
    let base = Graph.next_id (Session.graph session) in
    let next = ref base in
    let fresh () =
      let id = !next in
      incr next;
      id
    in
    let buf = Buffer.create 65536 and lit = Buffer.create 256 in
    let apply src nodes rels =
      let g = Graph.add_batch (Session.graph session) nodes rels in
      (* following the net-diff convention of [Stats]: properties and
         labels of created entities fold into the created counts *)
      let stats =
        {
          Stats.empty with
          Stats.nodes_created = List.length nodes;
          rels_created = List.length rels;
        }
      in
      match Session.advance_bulk session ~src ~stats g with
      | Ok () -> ()
      | Error e -> raise (Abort e)
    in
    let node_line n =
      Buffer.add_string buf "N ";
      Wal.add_pct_encoded buf n.vn_id;
      Buffer.add_char buf ' ';
      (match n.vn_labels with
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
      add_props_field buf ~lit n.vn_props
    in
    let rel_line r =
      Buffer.add_string buf "R ";
      Wal.add_pct_encoded buf r.vr_src;
      Buffer.add_char buf ' ';
      Wal.add_pct_encoded buf r.vr_tgt;
      Buffer.add_char buf ' ';
      Wal.add_pct_encoded buf r.vr_ty;
      Buffer.add_char buf ' ';
      add_props_field buf ~lit r.vr_props
    in
    let node_batches = chunks batch_size vnodes
    and rel_batches = chunks batch_size vrels in
    (try
       List.iter
         (fun batch ->
           let nodes =
             List.map
               (fun n ->
                 { Graph.n_id = fresh (); labels = n.vn_label_set; n_props = n.vn_props })
               batch
           in
           apply (frame buf node_line batch) nodes [])
         node_batches;
       List.iter
         (fun batch ->
           let rels =
             List.map
               (fun r ->
                 {
                   Graph.r_id = fresh ();
                   src = base + r.vr_src_row;
                   tgt = base + r.vr_tgt_row;
                   r_type = r.vr_ty;
                   r_props = r.vr_props;
                 })
               batch
           in
           apply (frame buf rel_line batch) [] rels)
         rel_batches;
       match Session.commit session with
       | Ok () -> ()
       | Error m -> raise (Abort (Errors.Update_error ("bulk load: " ^ m)))
     with e ->
       (match Session.rollback session with _ -> ());
       raise e);
    Ok
      {
        nodes_created = List.length vnodes;
        rels_created = List.length vrels;
        batches = List.length node_batches + List.length rel_batches;
      }
  with
  | Errors.Error e -> Error e
  | Abort e -> Error e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** [load_files session ~nodes_path ~rels_path] is {!load_strings} over
    files; errors cite the file paths. *)
let load_files ?batch_size (session : Session.t) ~nodes_path ~rels_path :
    (report, Errors.t) result =
  match (read_file nodes_path, read_file rels_path) with
  | nodes, rels ->
      load_strings ?batch_size ~nodes_name:nodes_path ~rels_name:rels_path
        session ~nodes ~rels
  | exception Sys_error m -> Error (Errors.Update_error ("bulk load: " ^ m))
