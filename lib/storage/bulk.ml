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
    holds [;]-separated labels; every other column is a property, typed
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
    original execution.  The loader itself applies the very frames it
    journals, so load and recovery share one code path. *)

open Cypher_graph
open Cypher_core
module Csv = Cypher_csv.Csv

type report = {
  nodes_created : int;
  rels_created : int;
  batches : int;  (** journal frames written *)
}

(** Raw CSV id → internal node id, threaded across the frames of one
    load (or one recovery replay). *)
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
(* Frame encoding                                                     *)
(* ------------------------------------------------------------------ *)

let enc_opt s = if s = "" then "-" else Wal.pct_encode s

let enc_props (props : Props.t) =
  if Props.is_empty props then "-" else Wal.encode_params (Props.to_map props)

let dec_opt s =
  if s = "-" then Some "" else Wal.pct_decode s

let dec_props share s : Props.t option =
  if s = "-" then Some Props.empty
  else Option.map (Share.props share) (Wal.decode_params ~share s)

let split_labels s = List.filter (fun l -> l <> "") (String.split_on_char ';' s)

let node_line ~id ~labels ~props =
  Printf.sprintf "N %s %s %s" (Wal.pct_encode id)
    (enc_opt (String.concat ";" labels))
    (enc_props props)

let rel_line ~src ~tgt ~ty ~props =
  Printf.sprintf "R %s %s %s %s" (Wal.pct_encode src) (Wal.pct_encode tgt)
    (Wal.pct_encode ty) (enc_props props)

(* ------------------------------------------------------------------ *)
(* Frame application (shared by load and recovery replay)             *)
(* ------------------------------------------------------------------ *)

(** [apply_frame ~ids g payload] applies one bulk frame to [g],
    recording created nodes in [ids] and resolving relationship
    endpoints through it.  Returns the new graph and the frame's net
    update counters (the journal checksum).  [Error] on a malformed
    line or an endpoint [ids] cannot resolve — during a load that is
    unreachable (frames are self-generated after validation); during
    recovery it means journal corruption the CRC did not see. *)
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

(** A validated row, ready to frame. *)
type vnode = { vn_id : string; vn_labels : string list; vn_props : Props.t }
type vrel = { vr_src : string; vr_tgt : string; vr_ty : string; vr_props : Props.t }

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

let field row i = List.nth row i

let pos header c =
  let rec go i = function
    | [] -> invalid_arg "pos"
    | h :: _ when h = c -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 header

let check_width file width (line, row) =
  let n = List.length row in
  if n <> width then
    fail_at file line "row has %d fields, header has %d" n width

let typed_props props_cols row : Props.t =
  Props.of_list
    (List.map (fun (c, i) -> (c, Csv.type_field (field row i))) props_cols)

let validate_nodes file src : vnode list =
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
      check_width file width (line, row);
      let id = field row id_i in
      if id = "" then fail_at file line "empty node id";
      (match Hashtbl.find_opt seen id with
      | Some first ->
          fail_at file line "duplicate node id %S (first seen at line %d)" id
            first
      | None -> Hashtbl.add seen id line);
      {
        vn_id = id;
        vn_labels =
          (match labels_i with
          | None -> []
          | Some i -> split_labels (field row i));
        vn_props = typed_props props_cols row;
      })
    rows

let validate_rels file ~(node_ids : (string, int) Hashtbl.t) src : vrel list =
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
      check_width file width (line, row);
      let s = field row src_i and t = field row tgt_i and ty = field row ty_i in
      if ty = "" then fail_at file line "empty relationship type";
      if not (Hashtbl.mem node_ids s) then
        fail_at file line "unknown source node id %S" s;
      if not (Hashtbl.mem node_ids t) then
        fail_at file line "unknown target node id %S" t;
      { vr_src = s; vr_tgt = t; vr_ty = ty; vr_props = typed_props props_cols row })
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

(** [load_strings session ~nodes ~rels] validates and applies the two
    CSV images.  [nodes_name]/[rels_name] label errors (default
    ["<nodes>"], ["<rels>"]). *)
let load_strings ?(batch_size = default_batch_size) ?(nodes_name = "<nodes>")
    ?(rels_name = "<rels>") (session : Session.t) ~(nodes : string)
    ~(rels : string) : (report, Errors.t) result =
  try
    if batch_size <= 0 then invalid_arg "Bulk.load_strings: batch_size";
    (* phase 1: validate everything before touching the graph *)
    let vnodes = validate_nodes nodes_name nodes in
    let node_ids = Hashtbl.create (List.length vnodes) in
    List.iteri (fun i n -> Hashtbl.add node_ids n.vn_id i) vnodes;
    let vrels = validate_rels rels_name ~node_ids rels in
    (* phase 2: frame in batches — all nodes before any relationship,
       so endpoint resolution never sees a forward reference *)
    let frames =
      List.map
        (fun batch ->
          String.concat "\n"
            (List.map
               (fun n ->
                 node_line ~id:n.vn_id ~labels:n.vn_labels ~props:n.vn_props)
               batch))
        (chunks batch_size vnodes)
      @ List.map
          (fun batch ->
            String.concat "\n"
              (List.map
                 (fun r ->
                   rel_line ~src:r.vr_src ~tgt:r.vr_tgt ~ty:r.vr_ty
                     ~props:r.vr_props)
                 batch))
          (chunks batch_size vrels)
    in
    (* phase 3: apply each frame and journal it, inside one transaction
       so a journal failure (e.g. a closed store) rolls everything back
       — and so the outermost commit flushes all frames with a single
       sink call, hence a single journal write *)
    Session.begin_tx session;
    let ids = create_idmap () in
    (try
       List.iter
         (fun payload ->
           match apply_frame ~ids (Session.graph session) payload with
           | Error m -> raise (Abort (Errors.Update_error ("bulk load: " ^ m)))
           | Ok (g', stats) -> (
               match Session.advance_bulk session ~src:payload ~stats g' with
               | Ok () -> ()
               | Error e -> raise (Abort e)))
         frames;
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
        batches = List.length frames;
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
