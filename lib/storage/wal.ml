(** The write-ahead statement journal.

    The journal is an append-only text file of framed records, one per
    successfully applied graph-changing statement.  Each record stores
    the statement's *source text* — replaying the journal means
    re-executing the statements through the ordinary [Api] — together
    with the semantics it ran under (mode / order / match mode, because
    a shell session can switch semantics mid-stream) and the statement's
    update counters as a semantic checksum: recovery re-derives the
    counters and any disagreement means replay diverged from the
    original execution.

    Frame format (all text, so a journal is greppable and debuggable
    with standard tools):

    {v
    %<payload-bytes> <crc32-hex>\n
    <payload>\n
    v}

    where the payload is one metadata line followed by the statement
    source:

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
    fails the statement rather than writing an unreplayable record.

    The CRC-32 covers the payload bytes exactly.  A crash can only
    damage the journal's tail (the file is append-only and records are
    written with a single [write]); {!scan_string} accepts the longest
    valid prefix of whole records and reports the first damaged byte
    offset, which recovery uses to truncate the tail away.  The CRC
    catches every single-byte corruption, so a damaged record is never
    silently replayed. *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_core

type record = {
  src : string;  (** statement source text *)
  stats : Stats.t;  (** update counters recorded at original execution *)
  mode : Config.mode;
  order : Config.order;
  match_mode : Config.match_mode;
  params : Value.t Smap.t;
      (** parameter bindings the statement ran under (empty when none) *)
  kind : Session.journal_kind;
      (** how [src] replays: Cypher source re-executed through the
          [Api], or a bulk-load frame applied by [Bulk.apply_frame] *)
}

(** Where and why a scan stopped before the end of the input. *)
type torn = {
  t_offset : int;  (** byte offset of the first unusable record *)
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

let encode_meta r =
  let base =
    Printf.sprintf "m=%s o=%s x=%s s=%s" (encode_mode r.mode)
      (encode_order r.order)
      (encode_match r.match_mode)
      (encode_stats r.stats)
  in
  let base =
    if Smap.is_empty r.params then base
    else base ^ " p=" ^ encode_params r.params
  in
  match r.kind with `Statement -> base | `Bulk -> base ^ " k=b"

let decode_meta line src : record option =
  let field prefix s =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  (* the four positional fields are mandatory; trailing options ([p=]
     parameters, [k=] record kind) appear in any order and default to
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
          Some { src; stats; mode; order; match_mode; params; kind }
      | _ -> None)
  | _ -> None

(** [encode r] is the full frame for [r], header through trailing
    newline. *)
let encode (r : record) : string =
  let payload = encode_meta r ^ "\n" ^ r.src in
  Printf.sprintf "%%%d %s\n%s\n" (String.length payload)
    (Crc32.to_hex (Crc32.digest payload))
    payload

(* ------------------------------------------------------------------ *)
(* Scanning                                                           *)
(* ------------------------------------------------------------------ *)

(** [scan_string s] parses records from the front of [s].  Returns
    [(records, clean_len, torn)]: the records of the longest valid
    prefix, the byte length of that prefix, and — unless the prefix is
    all of [s] — where and why the scan stopped.  Never raises. *)
let scan_string (s : string) : record list * int * torn option =
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
                  if payload_start + plen + 1 > len then
                    (List.rev acc, p, torn p "truncated payload")
                  else if s.[payload_start + plen] <> '\n' then
                    (List.rev acc, p, torn p "missing record terminator")
                  else
                    let payload = String.sub s payload_start plen in
                    if Crc32.to_hex (Crc32.digest payload) <> crc_s then
                      (List.rev acc, p, torn p "checksum mismatch")
                    else
                      let meta, src =
                        match String.index_opt payload '\n' with
                        | Some i ->
                            ( String.sub payload 0 i,
                              String.sub payload (i + 1)
                                (String.length payload - i - 1) )
                        | None -> (payload, "")
                      in
                      (match decode_meta meta src with
                      | Some r -> loop (r :: acc) (payload_start + plen + 1)
                      | None ->
                          (List.rev acc, p, torn p "malformed record metadata")))
          | _ -> (List.rev acc, p, torn p "malformed frame header"))
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

(** [read_file path] scans the whole journal file; a missing file is an
    empty journal. *)
let read_file path : record list * int * torn option =
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

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

(** [append w records] writes all [records] as one [write] (a crash can
    only tear the tail, never interleave), then — under [Fsync]
    durability — forces them to stable storage before returning. *)
let append (w : writer) (records : record list) : unit =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  write_all w.fd (String.concat "" (List.map encode records));
  match w.durability with
  | Config.Fsync -> Unix.fsync w.fd
  | Config.Buffered -> ()

let close_writer (w : writer) =
  if not w.closed then begin
    w.closed <- true;
    Unix.close w.fd
  end

(* ------------------------------------------------------------------ *)
(* Bridges                                                            *)
(* ------------------------------------------------------------------ *)

(** A journal record for a session journal entry. *)
let record_of_entry (e : Session.journal_entry) : record =
  {
    src = e.Session.je_src;
    stats = e.Session.je_stats;
    mode = e.Session.je_config.Config.mode;
    order = e.Session.je_config.Config.order;
    match_mode = e.Session.je_config.Config.match_mode;
    params = e.Session.je_config.Config.params;
    kind = e.Session.je_kind;
  }
