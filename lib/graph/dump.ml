(** Serialisation of a property graph to an equivalent Cypher script.

    [to_cypher g] produces a single CREATE statement that rebuilds [g]
    (up to entity ids) when executed on the empty graph — the repository
    analogue of a database dump, and the substrate of snapshot files
    (see [Cypher_storage.Snapshot]).

    The dump is *round-trip exact*: dump → parse → execute on the empty
    graph yields a graph isomorphic to the input ({!Iso.isomorphic}),
    for every storable graph.  That demands more care than pretty
    printing:

    - floats print in a reparse-exact form ([%.17g] fallback), with
      [nan]/[inf] — which have no Cypher literal — emitted as the
      constant expressions [(0.0 / 0.0)] and [(1.0 / 0.0)];
    - [min_int] has no literal either (the lexer only sees the unsigned
      digits, which overflow): it dumps as [(-4611686018427387903 - 1)];
    - identifiers that are not plain are backtick-quoted with embedded
      backticks doubled;
    - nested map keys are quoted like top-level ones;
    - nodes are emitted in id order and relationships after them, also
      in id order, so re-execution assigns fresh ids in the *same
      relative order* — the rebuilt graph is isomorphic under a
      monotone id mapping, which keeps statement replay on top of a
      reloaded snapshot deterministic (see DESIGN.md).

    Two graph shapes cannot be serialised and raise [Invalid_argument]:
    dangling relationships (only reachable through the legacy
    force-delete mid-statement; no Cypher script can recreate them) and
    entity-valued properties (which the engine refuses to store in the
    first place). *)

open Cypher_util.Maps

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let quote_ident s =
  if is_plain_ident s then s
  else
    (* a backtick inside the identifier is escaped by doubling it *)
    "`" ^ String.concat "``" (String.split_on_char '`' s) ^ "`"

(* [%.12g] first (shorter and usually exact), [%.17g] when the short
   form does not reparse to the same float.  An integral float below
   1e17 prints as bare digits under [%.17g], which would reload as an
   [Int]: it gets a [.0] *)
let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short
    else
      let long = Printf.sprintf "%.17g" f in
      if String.exists (fun ch -> ch = '.' || ch = 'e') long then long else long ^ ".0"

(* [iter] calls its argument on each entry in key order *)
let rec add_entries buf iter =
  Buffer.add_char buf '{';
  let first = ref true in
  iter (fun k v ->
      if not !first then Buffer.add_string buf ", ";
      first := false;
      Buffer.add_string buf (quote_ident k);
      Buffer.add_string buf ": ";
      add_value buf v);
  Buffer.add_char buf '}'

(** [add_value buf v] appends [value_literal v] to [buf]: the one writer
    behind literals, snapshot property maps and bulk frames. *)
and add_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.Int i ->
      Buffer.add_string buf
        (if i = min_int then Printf.sprintf "(-%d - 1)" max_int else string_of_int i)
  | Value.Float f ->
      Buffer.add_string buf
        (if Float.is_nan f then "(0.0 / 0.0)"
         else if f = Float.infinity then "(1.0 / 0.0)"
         else if f = Float.neg_infinity then "(-1.0 / 0.0)"
         else float_literal f)
  | Value.String s ->
      Buffer.add_char buf '\'';
      Value.add_escaped buf s;
      Buffer.add_char buf '\''
  | Value.List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          add_value buf x)
        l;
      Buffer.add_char buf ']'
  | Value.Map m -> add_entries buf (fun f -> Smap.iter f m)
  | Value.Node _ | Value.Rel _ | Value.Path _ ->
      invalid_arg
        ("Dump.to_cypher: entity reference " ^ Value.to_string v
       ^ " is not a storable property value")

(** A Cypher expression that evaluates back to exactly [v].  Raises
    [Invalid_argument] on entity references ([Node]/[Rel]/[Path]), which
    are identities into a particular graph, not storable values. *)
let value_literal (v : Value.t) : string =
  let buf = Buffer.create 16 in
  add_value buf v;
  Buffer.contents buf

(** [add_props buf props] appends [props] as a map literal, in key
    order; an empty map is [{}]. *)
let add_props buf props = add_entries buf (fun f -> Props.iter f props)

(* [ {...}] after an entity's labels or type, unless it has no properties *)
let add_entity_props buf props =
  if not (Props.is_empty props) then begin
    Buffer.add_char buf ' ';
    add_props buf props
  end

let add_node buf (n : Graph.node) =
  Printf.bprintf buf "(n%d" n.Graph.n_id;
  Sset.iter (fun l -> Printf.bprintf buf ":%s" (quote_ident l)) n.Graph.labels;
  add_entity_props buf n.Graph.n_props;
  Buffer.add_char buf ')'

let add_rel buf (r : Graph.rel) =
  Printf.bprintf buf "(n%d)-[:%s" r.Graph.src (quote_ident r.Graph.r_type);
  add_entity_props buf r.Graph.r_props;
  Printf.bprintf buf "]->(n%d)" r.Graph.tgt

(* the script below, written entity by entity into [buf] *)
let add_cypher buf (g : Graph.t) =
  (match Graph.dangling_rels g with
  | [] -> ()
  | rels ->
      invalid_arg
        (Printf.sprintf
           "Dump.to_cypher: graph has %d dangling relationship(s) [%s]"
           (List.length rels)
           (String.concat ", "
              (List.map (fun (r : Graph.rel) -> string_of_int r.Graph.r_id) rels))));
  let first = ref true in
  let next add x () =
    Buffer.add_string buf (if !first then "CREATE " else ",\n       ");
    first := false;
    add buf x
  in
  Graph.fold_nodes (next add_node) g ();
  Graph.fold_rels (next add_rel) g ();
  if not !first then Buffer.add_string buf ";\n"

(** [to_cypher g] is a Cypher script rebuilding [g]; empty for the empty
    graph.
    @raise Invalid_argument when [g] has dangling relationships (a
    Cypher script cannot recreate them — an unbound endpoint variable
    would silently create a fresh blank node instead). *)
let to_cypher (g : Graph.t) : string =
  let buf = Buffer.create 4096 in
  add_cypher buf g;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)
(* ------------------------------------------------------------------ *)

(* The inverse of the writer above: a recursive-descent reader for
   exactly the grammar [value_literal] and [to_cypher] emit, so stored
   images decode without the query front end.  Whitespace between
   tokens is free; everything else the writer never produces (other
   escapes, double-quoted strings, arithmetic beyond the four constant
   expressions, relationship variables, chains) is an error.  Scalars
   mean what the lexer would make of them: digits alone are an [Int],
   a fraction or exponent makes a [Float], and integer literals beyond
   [max_int] are refused. *)

exception Bad of string

type cursor = {
  s : string;
  mutable i : int;
  share : Share.t;
      (* a graph repeats a handful of labels, keys and values across
         every entity, and stores what the reader returns *)
}

let fail c fmt =
  Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "%s at byte %d" m c.i))) fmt

(* '\000' past the end: never a token start, so it only ever fails *)
let peek c = if c.i < String.length c.s then c.s.[c.i] else '\000'
let is_digit = function '0' .. '9' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let skip_ws c =
  while match peek c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    c.i <- c.i + 1
  done

let looking_at c w =
  let n = String.length w in
  c.i + n <= String.length c.s
  &&
  let rec go k = k = n || (c.s.[c.i + k] = w.[k] && go (k + 1)) in
  go 0

(* [expect c w] skips whitespace, then consumes the token [w] *)
let expect c w =
  skip_ws c;
  if looking_at c w then c.i <- c.i + String.length w
  else if c.i >= String.length c.s then fail c "expected %S, got end of input" w
  else fail c "expected %S" w

let read_ident c =
  skip_ws c;
  match peek c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let start = c.i in
      while is_ident_char (peek c) do
        c.i <- c.i + 1
      done;
      String.sub c.s start (c.i - start)
  | '`' ->
      c.i <- c.i + 1;
      let buf = Buffer.create 16 in
      let rec go () =
        if c.i >= String.length c.s then fail c "unterminated backtick identifier"
        else if c.s.[c.i] <> '`' then begin
          Buffer.add_char buf c.s.[c.i];
          c.i <- c.i + 1;
          go ()
        end
        else if c.i + 1 < String.length c.s && c.s.[c.i + 1] = '`' then begin
          Buffer.add_char buf '`';
          c.i <- c.i + 2;
          go ()
        end
        else c.i <- c.i + 1
      in
      go ();
      Buffer.contents buf
  | _ -> fail c "expected an identifier"

(* labels, keys and types, which the graph keeps *)
let read_name c = Share.name c.share (read_ident c)

let hex_digit c =
  let d =
    match peek c with
    | '0' .. '9' as h -> Char.code h - Char.code '0'
    | 'a' .. 'f' as h -> Char.code h - Char.code 'a' + 10
    | 'A' .. 'F' as h -> Char.code h - Char.code 'A' + 10
    | _ -> fail c "\\u escape expects four hex digits"
  in
  c.i <- c.i + 1;
  d

(* at the opening quote; the common escape-free string is one [sub] *)
let read_string c =
  c.i <- c.i + 1;
  let start = c.i and len = String.length c.s in
  let rec plain j =
    if j >= len then fail c "unterminated string literal"
    else match c.s.[j] with '\'' -> j | '\\' -> -1 | _ -> plain (j + 1)
  in
  match plain start with
  | j when j >= 0 ->
      c.i <- j + 1;
      String.sub c.s start (j - start)
  | _ ->
      let buf = Buffer.create 32 in
      let rec go () =
        if c.i >= len then fail c "unterminated string literal"
        else
          match c.s.[c.i] with
          | '\'' -> c.i <- c.i + 1
          | '\\' ->
              c.i <- c.i + 1;
              (match peek c with
              | 'u' ->
                  c.i <- c.i + 1;
                  let a = hex_digit c in
                  let b = hex_digit c in
                  let d = hex_digit c in
                  let e = hex_digit c in
                  let code = (((((a * 16) + b) * 16) + d) * 16) + e in
                  if not (Uchar.is_valid code) then
                    fail c "\\u%04x is not a valid code point" code;
                  Buffer.add_utf_8_uchar buf (Uchar.of_int code)
              | e ->
                  let ch =
                    match e with
                    | 'n' -> '\n'
                    | 't' -> '\t'
                    | 'r' -> '\r'
                    | 'b' -> '\b'
                    | 'f' -> '\012'
                    | '\\' | '\'' -> e
                    | _ when c.i >= len -> fail c "unterminated string literal"
                    | _ -> fail c "unknown escape '\\%c'" e
                  in
                  Buffer.add_char buf ch;
                  c.i <- c.i + 1);
              go ()
          | ch ->
              Buffer.add_char buf ch;
              c.i <- c.i + 1;
              go ()
      in
      go ();
      Buffer.contents buf

let read_number c =
  let start = c.i in
  let neg = peek c = '-' in
  if neg then c.i <- c.i + 1;
  let digits () =
    let from = c.i in
    while is_digit (peek c) do
      c.i <- c.i + 1
    done;
    if c.i = from then fail c "expected a digit"
  in
  digits ();
  let int_end = c.i in
  let fraction =
    peek c = '.'
    && c.i + 1 < String.length c.s
    && is_digit c.s.[c.i + 1]
    && (c.i <- c.i + 1;
        digits ();
        true)
  in
  let exponent =
    (match peek c with 'e' | 'E' -> true | _ -> false)
    && (c.i <- c.i + 1;
        (match peek c with '+' | '-' -> c.i <- c.i + 1 | _ -> ());
        digits ();
        true)
  in
  if fraction || exponent then
    Value.Float (float_of_string (String.sub c.s start (c.i - start)))
  else
    let unsigned = if neg then start + 1 else start in
    match int_of_string_opt (String.sub c.s unsigned (int_end - unsigned)) with
    | Some n -> Value.Int (if neg then -n else n)
    | None -> fail c "integer literal out of range"

(* what evaluating [(0.0 / 0.0)] gives, so a decoded image equals the
   executed one bit for bit: on x86-64 this nan carries the sign bit,
   which [Float.nan] does not *)
let nan = Sys.opaque_identity 0.0 /. 0.0

(* the values without a literal, as [value_literal] spells them *)
let constants =
  List.map
    (fun v -> (value_literal v, v))
    Value.[ Int min_int; Float nan; Float Float.infinity; Float Float.neg_infinity ]

let rec read_value_at c : Value.t =
  skip_ws c;
  match peek c with
  | '\'' -> Share.value c.share (Value.String (read_string c))
  | '-' | '0' .. '9' -> Share.value c.share (read_number c)
  | '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = ']' then (
        c.i <- c.i + 1;
        Value.List [])
      else
        let rec items acc =
          let acc = read_value_at c :: acc in
          skip_ws c;
          match peek c with
          | ',' ->
              c.i <- c.i + 1;
              items acc
          | ']' ->
              c.i <- c.i + 1;
              Value.List (List.rev acc)
          | _ -> fail c "expected ',' or ']' in a list"
        in
        items []
  | '{' -> Value.Map (read_map c)
  | '(' -> (
      match List.find_opt (fun (text, _) -> looking_at c text) constants with
      | Some (text, v) ->
          c.i <- c.i + String.length text;
          v
      | None -> fail c "unknown constant expression")
  | _ ->
      let word w v =
        if looking_at c w then (
          c.i <- c.i + String.length w;
          v)
        else fail c "expected a value"
      in
      (match peek c with
      | 'n' -> word "null" Value.Null
      | 't' -> word "true" (Value.Bool true)
      | 'f' -> word "false" (Value.Bool false)
      | _ when c.i >= String.length c.s -> fail c "expected a value, got end of input"
      | _ -> fail c "expected a value")

(* at the opening brace *)
and read_map c : Value.t Smap.t =
  c.i <- c.i + 1;
  skip_ws c;
  if peek c = '}' then (
    c.i <- c.i + 1;
    Smap.empty)
  else
    let rec entries m =
      let key = read_name c in
      if Smap.mem key m then fail c "duplicate map key %S" key;
      expect c ":";
      let m = Smap.add key (read_value_at c) m in
      skip_ws c;
      match peek c with
      | ',' ->
          c.i <- c.i + 1;
          entries m
      | '}' ->
          c.i <- c.i + 1;
          m
      | _ -> fail c "expected ',' or '}' in a map"
    in
    entries Smap.empty

let cursor ?(share = Share.create ()) s = { s; i = 0; share }

let at_end c =
  skip_ws c;
  if c.i < String.length c.s then fail c "trailing bytes after the end"

(** [read_value ?share s] is the value the literal [s] denotes: the
    inverse of {!value_literal}.  [Error] on anything else; never
    raises. *)
let read_value ?share (s : string) : (Value.t, string) result =
  let c = cursor ?share s in
  try
    let v = read_value_at c in
    at_end c;
    Ok v
  with Bad m -> Error ("value literal: " ^ m)

(* [(var:L… {…})]: the variable, labels and property map as written *)
let read_node_pattern c =
  expect c "(";
  let var = read_ident c in
  let rec labels acc =
    skip_ws c;
    if peek c = ':' then (
      c.i <- c.i + 1;
      labels (read_name c :: acc))
    else List.rev acc
  in
  let labels = labels [] in
  skip_ws c;
  let props = if peek c = '{' then read_map c else Smap.empty in
  expect c ")";
  (var, labels, props)

(** [of_cypher g s] applies the script [s], as written by {!to_cypher},
    to [g]: nodes and relationships get ids in file order and are added
    in one {!Graph.add_batch}, so the ids and [next_id] are those
    executing [s] as a CREATE statement on [g] would give.  The empty
    (or blank) script leaves [g] unchanged.
    [pos] is the byte offset the script starts at (default 0).  [Error]
    on anything outside the grammar — including an unbound or rebound
    node variable, a relationship endpoint with labels or properties,
    and trailing bytes; never raises. *)
let of_cypher ?(pos = 0) (g : Graph.t) (s : string) : (Graph.t, string) result
    =
  let c = cursor s in
  c.i <- pos;
  let vars : (string, Graph.node_id) Hashtbl.t = Hashtbl.create 1024 in
  (* the script's entities, newest first, with the ids creating them in
     file order would assign; the graph is built from them in one batch *)
  let next = ref (Graph.next_id g) and nodes = ref [] and rels = ref [] in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let endpoint what (var, labels, props) =
    if labels <> [] || not (Smap.is_empty props) then
      fail c "relationship %s `%s` carries labels or properties" what var;
    match Hashtbl.find_opt vars var with
    | Some id -> id
    | None -> fail c "relationship %s `%s` is unbound" what var
  in
  let rec fragments () =
    let ((var, labels, props) as node) = read_node_pattern c in
    skip_ws c;
    if peek c = '-' then begin
      let src = endpoint "source" node in
      expect c "-";
      expect c "[";
      expect c ":";
      let r_type = read_name c in
      skip_ws c;
      let props = if peek c = '{' then read_map c else Smap.empty in
      expect c "]";
      expect c "->";
      let tgt = endpoint "target" (read_node_pattern c) in
      let r_props = Share.props c.share props in
      rels := { Graph.r_id = fresh (); src; tgt; r_type; r_props } :: !rels
    end
    else begin
      if Hashtbl.mem vars var then fail c "variable `%s` is bound twice" var;
      let n_id = fresh () in
      nodes :=
        { Graph.n_id; labels = Share.labels c.share labels; n_props = Share.props c.share props }
        :: !nodes;
      Hashtbl.add vars var n_id
    end;
    skip_ws c;
    match peek c with
    | ',' ->
        c.i <- c.i + 1;
        fragments ()
    | ';' -> c.i <- c.i + 1
    | _ -> fail c "expected ',' or ';' after a pattern"
  in
  try
    if pos < 0 || pos > String.length s then fail c "start offset out of range";
    skip_ws c;
    if c.i >= String.length s then Ok g
    else begin
      expect c "CREATE";
      fragments ();
      at_end c;
      (* every endpoint is a variable the script bound, so the batch's
         own preconditions hold *)
      Ok (Graph.add_batch g (List.rev !nodes) (List.rev !rels))
    end
  with Bad m -> Error ("dump script: " ^ m)

(** [read_ident s pos] reads one identifier as {!quote_ident} writes
    it, after optional whitespace from byte [pos]; it returns the name
    and the offset just past it. *)
let read_ident s pos =
  let c = cursor s in
  c.i <- pos;
  try
    if pos < 0 then fail c "start offset out of range";
    let name = read_ident c in
    Ok (name, c.i)
  with Bad m -> Error ("identifier: " ^ m)
