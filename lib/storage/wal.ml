(** The write-ahead statement journal.

    The journal is an append-only text file of framed
    [Session.journal_entry] values, one per successfully applied
    graph-changing statement or bulk load.  Each frame stores the
    entry's *source text* — replaying the journal means re-executing
    the statements through the ordinary [Api] — together with the
    semantics it ran under (mode / order / match mode, because a shell
    session can switch semantics mid-stream) and the entry's update
    counters as a semantic checksum: recovery re-derives the counters
    and any disagreement means replay diverged from the original
    execution.

    Frame format (all text, so a journal is greppable and debuggable
    with standard tools):

    {v
    %<payload-bytes> <crc32-hex>\n
    <payload>\n
    v}

    where the payload is one metadata line followed by the source:

    {v
    m=<legacy|atomic> o=<fwd|rev|seed:N> x=<iso|homo> s=<11 counters> [p=<params>] [k=b]\n
    <statement text, possibly multi-line>
    v}

    The optional [p=] field carries the statement's bound parameter
    values — a percent-encoded Cypher map literal (['%'], [' '], CR and
    LF escaped as [%XX], keeping the metadata line single-line and
    space-splittable) — so replay reproduces a parameterized execution
    exactly.  It is omitted when no parameters were bound, which also
    keeps the frame byte-identical to the pre-parameter format;
    {!decode_meta} accepts both.  Parameters must be storable values
    (graph entities cannot outlive the statement): journaling a
    statement whose bindings contain a node, relationship or path
    fails the statement rather than writing an unreplayable frame.

    Only those four configuration fields reach the disk.  A decoded
    entry's [je_config] is the configuration it replays under:
    [Config.permissive] with the recorded fields, counters on.

    The CRC-32 covers the payload bytes exactly.  A crash can only
    damage the journal's tail (the file is append-only and frames are
    written with a single [write]); {!scan_string} accepts the longest
    valid prefix of whole frames and reports the first damaged byte
    offset, which recovery uses to truncate the tail away.  The CRC
    catches every single-byte corruption, so a damaged frame is never
    silently replayed. *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_core

(** Where and why a scan stopped before the end of the input. *)
type torn = {
  t_offset : int;  (** byte offset of the first unusable frame *)
  t_reason : string;
}

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let encode_stats (s : Stats.t) =
  String.concat ","
    (List.map string_of_int
       [
         s.Stats.nodes_created;
         s.Stats.nodes_deleted;
         s.Stats.rels_created;
         s.Stats.rels_deleted;
         s.Stats.props_set;
         s.Stats.props_removed;
         s.Stats.labels_added;
         s.Stats.labels_removed;
         s.Stats.merge_matched;
         s.Stats.merge_created;
         s.Stats.rows;
       ])

let decode_stats s : Stats.t option =
  match List.filter_map int_of_string_opt (String.split_on_char ',' s) with
  | [ nc; nd; rc; rd; ps; pr; la; lr; mm; mc; rows ] ->
      Some
        {
          Stats.nodes_created = nc;
          nodes_deleted = nd;
          rels_created = rc;
          rels_deleted = rd;
          props_set = ps;
          props_removed = pr;
          labels_added = la;
          labels_removed = lr;
          merge_matched = mm;
          merge_created = mc;
          rows;
        }
  | _ -> None

let encode_mode = function Config.Legacy -> "legacy" | Config.Atomic -> "atomic"

let decode_mode = function
  | "legacy" -> Some Config.Legacy
  | "atomic" -> Some Config.Atomic
  | _ -> None

let encode_order = function
  | Config.Forward -> "fwd"
  | Config.Reverse -> "rev"
  | Config.Seeded n -> "seed:" ^ string_of_int n

let decode_order s =
  match s with
  | "fwd" -> Some Config.Forward
  | "rev" -> Some Config.Reverse
  | _ -> (
      match String.index_opt s ':' with
      | Some 4 when String.sub s 0 4 = "seed" -> (
          match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
          | Some n -> Some (Config.Seeded n)
          | None -> None)
      | _ -> None)

let encode_match = function
  | Config.Isomorphic -> "iso"
  | Config.Homomorphic -> "homo"

let decode_match = function
  | "iso" -> Some Config.Isomorphic
  | "homo" -> Some Config.Homomorphic
  | _ -> None

(* Percent-encoding for the [p=] field: the metadata line is split on
   spaces and terminated by a newline, so those bytes (and '%' itself,
   plus CR for symmetry) must not appear in the encoded value. *)
let add_pct_encoded buf s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match s.[i] with
      | '%' | ' ' | '\n' | '\r' as c ->
          Buffer.add_substring buf s start (i - start);
          Buffer.add_string buf
            (match c with '%' -> "%25" | ' ' -> "%20" | '\n' -> "%0a" | _ -> "%0d");
          go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

let pct_encode s =
  let buf = Buffer.create (String.length s + 8) in
  add_pct_encoded buf s;
  Buffer.contents buf

let pct_decode s : string option =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 >= n then None
      else
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some h, Some l ->
            Buffer.add_char buf (Char.chr ((h * 16) + l));
            go (i + 3)
        | _ -> None
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

(* Parameter bindings travel as a percent-encoded Cypher map literal:
   [Dump.value_literal] renders every storable value as an expression
   that evaluates back to exactly itself, and decoding reads it back
   with [Dump.read_value], the writer's own inverse — no second
   serialization format to keep in sync, and no query front end on the
   recovery path.  Entity values (nodes, relationships, paths) make
   [value_literal] raise, which surfaces as a journal-append failure
   for the offending statement. *)
let encode_params (params : Value.t Smap.t) : string =
  pct_encode (Dump.value_literal (Value.Map params))

let decode_params ?share s : Value.t Smap.t option =
  match Option.map (Dump.read_value ?share) (pct_decode s) with
  | Some (Ok (Value.Map m)) -> Some m
  | _ -> None

let encode_meta (e : Session.journal_entry) =
  let c = e.Session.je_config in
  let base =
    Printf.sprintf "m=%s o=%s x=%s s=%s" (encode_mode c.Config.mode)
      (encode_order c.Config.order)
      (encode_match c.Config.match_mode)
      (encode_stats e.Session.je_stats)
  in
  let base =
    if Smap.is_empty c.Config.params then base
    else base ^ " p=" ^ encode_params c.Config.params
  in
  match e.Session.je_kind with `Statement -> base | `Bulk -> base ^ " k=b"

let decode_meta line src : Session.journal_entry option =
  let field prefix s =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  (* the four positional fields are mandatory; trailing options ([p=]
     parameters, [k=] entry kind) appear in any order and default to
     "no parameters" / "statement", so pre-parameter and pre-bulk
     journals still decode *)
  match String.split_on_char ' ' line with
  | m :: o :: x :: s :: opts -> (
      let rec scan params kind = function
        | [] -> Some (params, kind)
        | opt :: rest -> (
            match field "p=" opt with
            | Some p -> (
                match decode_params p with
                | Some params -> scan params kind rest
                | None -> None)
            | None -> (
                match field "k=" opt with
                | Some "b" -> scan params `Bulk rest
                | Some _ | None -> None))
      in
      match
        ( Option.bind (field "m=" m) decode_mode,
          Option.bind (field "o=" o) decode_order,
          Option.bind (field "x=" x) decode_match,
          Option.bind (field "s=" s) decode_stats,
          scan Smap.empty `Statement opts )
      with
      | Some mode, Some order, Some match_mode, Some stats, Some (params, kind)
        ->
          (* an entry replays under the semantics it ran with, its
             parameter bindings included; the dialect is permissive
             because validation happened at original execution, and
             counters are on because they are the replay checksum *)
          Some
            {
              Session.je_src = src;
              je_stats = stats;
              je_config =
                {
                  Config.permissive with
                  mode;
                  order;
                  match_mode;
                  collect_stats = true;
                  params;
                };
              je_kind = kind;
            }
      | _ -> None)
  | _ -> None

(* [frames es] is the frames of [es] back to back, in one buffer of
   their exact length: [%LEN CRC\n], the payload (metadata, newline,
   source), [\n].  Each source is copied once, into place, and the CRC
   reads the payload there. *)
let frames (es : Session.journal_entry list) : bytes =
  let parts =
    List.map
      (fun (e : Session.journal_entry) ->
        let meta = encode_meta e in
        let src = e.Session.je_src in
        let plen = String.length meta + 1 + String.length src in
        (meta, src, plen, string_of_int plen))
      es
  in
  (* besides the length digits and the payload: '%', ' ', the 8 CRC
     digits and two newlines *)
  let total =
    List.fold_left (fun acc (_, _, plen, len_s) -> acc + String.length len_s + plen + 12) 0 parts
  in
  let buf = Bytes.create total in
  let put pos (meta, src, plen, len_s) =
    let crc_at = pos + String.length len_s + 2 in
    let start = crc_at + 9 in
    Bytes.set buf pos '%';
    Bytes.blit_string len_s 0 buf (pos + 1) (String.length len_s);
    Bytes.set buf (crc_at - 1) ' ';
    Bytes.set buf (crc_at + 8) '\n';
    Bytes.blit_string meta 0 buf start (String.length meta);
    Bytes.set buf (start + String.length meta) '\n';
    Bytes.blit_string src 0 buf (start + String.length meta + 1) (String.length src);
    Bytes.set buf (start + plen) '\n';
    (* the string view is read by [digest] alone, before the next write *)
    let crc = Crc32.digest ~pos:start ~len:plen (Bytes.unsafe_to_string buf) in
    Bytes.blit_string (Crc32.to_hex crc) 0 buf crc_at 8;
    start + plen + 1
  in
  ignore (List.fold_left put 0 parts);
  buf

(** [encode e] is the full frame for [e], header through trailing
    newline. *)
let encode (e : Session.journal_entry) : string = Bytes.unsafe_to_string (frames [ e ])

(* ------------------------------------------------------------------ *)
(* Scanning                                                           *)
(* ------------------------------------------------------------------ *)

(** [scan_string s] decodes entries from the front of [s].  Returns
    [(entries, clean_len, torn)]: the entries of the longest valid
    prefix, the byte length of that prefix, and — unless the prefix is
    all of [s] — where and why the scan stopped.  Never raises. *)
let scan_string (s : string) : Session.journal_entry list * int * torn option =
  let len = String.length s in
  let torn at reason = Some { t_offset = at; t_reason = reason } in
  let rec loop acc p =
    if p >= len then (List.rev acc, p, None)
    else if s.[p] <> '%' then (List.rev acc, p, torn p "bad frame marker")
    else
      match String.index_from_opt s p '\n' with
      | None -> (List.rev acc, p, torn p "truncated frame header")
      | Some nl -> (
          let header = String.sub s (p + 1) (nl - p - 1) in
          match String.split_on_char ' ' header with
          | [ len_s; crc_s ]
            when String.length crc_s = 8
                 && len_s <> ""
                 && String.for_all (function '0' .. '9' -> true | _ -> false) len_s
            -> (
              match int_of_string_opt len_s with
              | None -> (List.rev acc, p, torn p "malformed frame header")
              | Some plen ->
                  let payload_start = nl + 1 in
                  (* [plen] may be near [max_int]: compare without
                     adding to it *)
                  if plen > len - payload_start - 1 then
                    (List.rev acc, p, torn p "truncated payload")
                  else if s.[payload_start + plen] <> '\n' then
                    (List.rev acc, p, torn p "missing record terminator")
                  else if
                    Crc32.to_hex (Crc32.digest ~pos:payload_start ~len:plen s) <> crc_s
                  then (List.rev acc, p, torn p "checksum mismatch")
                  else
                    let payload_end = payload_start + plen in
                    let meta, src =
                      match String.index_from_opt s payload_start '\n' with
                      | Some i when i < payload_end ->
                          ( String.sub s payload_start (i - payload_start),
                            String.sub s (i + 1) (payload_end - i - 1) )
                      | _ -> (String.sub s payload_start plen, "")
                    in
                    (match decode_meta meta src with
                    | Some e -> loop (e :: acc) (payload_end + 1)
                    | None -> (List.rev acc, p, torn p "malformed record metadata")))
          | _ -> (List.rev acc, p, torn p "malformed frame header"))
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

(** [read_file path] scans the whole journal file; a missing file is an
    empty journal. *)
let read_file path : Session.journal_entry list * int * torn option =
  if not (Sys.file_exists path) then ([], 0, None)
  else
    let read ic = really_input_string ic (in_channel_length ic) in
    scan_string (In_channel.with_open_bin path read)

(** [truncate_file path n] cuts the journal back to its first [n] bytes
    (dropping a torn tail). *)
let truncate_file path n = if Sys.file_exists path then Unix.truncate path n

type writer = {
  fd : Unix.file_descr;
  durability : Config.durability;
  mutable closed : bool;
}

(** [open_writer ~durability path] opens [path] for appending, creating
    it if needed. *)
let open_writer ?(durability = Config.Fsync) path : writer =
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  { fd; durability; closed = false }

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      let n = Unix.write fd b off (len - off) in
      go (off + n)
  in
  go 0

(** [append w entries] writes the frames of all [entries] as one
    [write] (a crash can only tear the tail, never interleave), then —
    under [Fsync] durability — forces them to stable storage before
    returning. *)
let append (w : writer) (entries : Session.journal_entry list) : unit =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  write_all w.fd (frames entries);
  match w.durability with
  | Config.Fsync -> Unix.fsync w.fd
  | Config.Buffered -> ()

let close_writer (w : writer) =
  if not w.closed then begin
    w.closed <- true;
    Unix.close w.fd
  end
