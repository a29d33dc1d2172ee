(** Serialisation of a property graph to an equivalent Cypher script.

    [to_cypher g] produces a single CREATE statement that rebuilds [g]
    (up to entity ids) when executed on the empty graph — the repository
    analogue of a database dump, and the substrate of snapshot files
    (see [Cypher_storage.Snapshot]).  The script carries no layout:
    one entity per line, each line after the first at column 0 and the
    one before it ending in [,].  Whitespace between tokens means
    nothing to the grammar, and the reader below skips it, so scripts
    written with the older 7-space continuation indent read the same.

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
module Vec = Cypher_util.Vec

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
    Buffer.add_string buf (if !first then "CREATE " else ",\n");
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
  let s = c.s and i = ref c.i in
  while !i < String.length s && match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    incr i
  done;
  c.i <- !i

let looking_at c w =
  let n = String.length w in
  c.i + n <= String.length c.s
  &&
  let k = ref 0 in
  while !k < n && c.s.[c.i + !k] = w.[!k] do
    incr k
  done;
  !k = n

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

(* the end of the plain identifier starting at [i] *)
let ident_end s i =
  let j = ref i in
  while !j < String.length s && is_ident_char s.[!j] do
    incr j
  done;
  !j

let same_bytes s lo w =
  let n = String.length w in
  let k = ref 0 in
  while !k < n && s.[lo + !k] = w.[!k] do
    incr k
  done;
  !k = n

(* [read_name_as c guess]: {!read_name}, which is [guess] itself when
   the script spells [guess] there *)
let read_name_as c guess =
  skip_ws c;
  match peek c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let start = c.i in
      let stop = ident_end c.s start in
      c.i <- stop;
      if stop - start = String.length guess && same_bytes c.s start guess then guess
      else Share.name c.share (String.sub c.s start (stop - start))
  | _ -> read_name c

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

(* skips a run of digits, failing on none *)
let digits c =
  let from = c.i in
  while is_digit (peek c) do
    c.i <- c.i + 1
  done;
  if c.i = from then fail c "expected a digit"

(* the digits [s.[lo] .. s.[hi - 1]] as an int, or -1 beyond [max_int] *)
let int_of_digits s lo hi =
  let n = ref 0 and i = ref lo in
  while !i < hi && !n >= 0 do
    let d = Char.code s.[!i] - Char.code '0' in
    n := if !n > (max_int - d) / 10 then -1 else (!n * 10) + d;
    incr i
  done;
  !n

let read_number c =
  let start = c.i in
  let neg = peek c = '-' in
  if neg then c.i <- c.i + 1;
  digits c;
  let int_end = c.i in
  let fraction =
    peek c = '.'
    && c.i + 1 < String.length c.s
    && is_digit c.s.[c.i + 1]
    && (c.i <- c.i + 1;
        digits c;
        true)
  in
  let exponent =
    (match peek c with 'e' | 'E' -> true | _ -> false)
    && (c.i <- c.i + 1;
        (match peek c with '+' | '-' -> c.i <- c.i + 1 | _ -> ());
        digits c;
        true)
  in
  if fraction || exponent then
    Value.Float (float_of_string (String.sub c.s start (c.i - start)))
  else
    match int_of_digits c.s (if neg then start + 1 else start) int_end with
    | -1 -> fail c "integer literal out of range"
    | n -> Value.Int (if neg then -n else n)

(* what evaluating [(0.0 / 0.0)] gives, so a decoded image equals the
   executed one bit for bit: on x86-64 this nan carries the sign bit,
   which [Float.nan] does not *)
let nan = Sys.opaque_identity 0.0 /. 0.0

(* the values without a literal, as [value_literal] spells them *)
let constants =
  List.map
    (fun v -> (value_literal v, v))
    Value.[ Int min_int; Float nan; Float Float.infinity; Float Float.neg_infinity ]

(* A map as read: [count] entries in script order, [nulls] of them
   [null]; [ascending] while each key is above the one before it.  The
   decoder reads every entity's map into one. *)
type entries = {
  mutable keys : string array;
  mutable vals : Value.t array;
  mutable count : int;
  mutable nulls : int;
  mutable ascending : bool;
}

let new_entries () = { keys = [||]; vals = [||]; count = 0; nulls = 0; ascending = true }

(* [key] is about to be the next entry: refuse it if it is there already.
   A key above the one before is above them all, so the earlier keys are
   only searched once the keys stop ascending. *)
let check_key c e key =
  let k = e.count in
  if k > 0 && not (e.ascending && String.compare e.keys.(k - 1) key < 0) then begin
    e.ascending <- false;
    for m = 0 to k - 1 do
      if String.equal e.keys.(m) key then fail c "duplicate map key %S" key
    done
  end

let push_entry e key v =
  let k = e.count in
  if k = Array.length e.keys then begin
    e.keys <- Array.append e.keys (Array.make (max 8 k) "");
    e.vals <- Array.append e.vals (Array.make (max 8 k) Value.Null)
  end;
  e.keys.(k) <- key;
  e.vals.(k) <- v;
  e.count <- k + 1;
  if Value.is_null v then e.nulls <- e.nulls + 1

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

(* at the opening brace; a map value keeps its [null]s *)
and read_map c : Value.t Smap.t =
  let e = new_entries () in
  read_entries c e [||];
  let m = ref Smap.empty in
  for i = 0 to e.count - 1 do
    m := Smap.add e.keys.(i) e.vals.(i) !m
  done;
  !m

(* at the opening brace: the map's entries into [e], each key guessed
   to be the one at its position in [guess] *)
and read_entries c e (guess : string array) =
  c.i <- c.i + 1;
  e.count <- 0;
  e.nulls <- 0;
  e.ascending <- true;
  skip_ws c;
  if peek c = '}' then c.i <- c.i + 1
  else
    let more = ref true in
    while !more do
      let key = read_name_as c (if e.count < Array.length guess then guess.(e.count) else "") in
      check_key c e key;
      expect c ":";
      push_entry e key (read_value_at c);
      skip_ws c;
      match peek c with
      | ',' -> c.i <- c.i + 1
      | '}' ->
          c.i <- c.i + 1;
          more := false
      | _ -> fail c "expected ',' or '}' in a map"
    done

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

(* ------------------------------------------------------------------ *)
(* The script decoder                                                 *)
(* ------------------------------------------------------------------ *)

(* [of_cypher] reads the script in one pass into two growable arrays of
   entities, building each property map straight into the arrays a
   {!Props.t} holds, and hands both to one {!Graph.add_batch}.  What
   repeats from one entity to the next (its labels, keys and type) is
   recognised in place, without copying the name out of the script or
   looking it up, and a node variable is read as a number when it is
   the writer's [n<id>].  Nothing is sized from a snapshot header's
   counts: the CRC does not cover the header. *)

(* [numbered s lo hi] is [k] when [s.[lo] .. s.[hi - 1]] spells [n<k>]
   as the writer does (no leading zero, at most 18 digits), else -1 *)
let numbered s lo hi =
  let digits = hi - lo - 1 in
  if digits < 1 || digits > 18 || s.[lo] <> 'n' || (digits > 1 && s.[lo + 1] = '0') then -1
  else
    let k = ref 0 and i = ref (lo + 1) in
    while !i < hi && !k >= 0 do
      (match s.[!i] with
      | '0' .. '9' as ch -> k := (!k * 10) + Char.code ch - Char.code '0'
      | _ -> k := -1);
      incr i
    done;
    !k

(* The node variables bound so far.  A variable is a key: [k] for
   [n<k>], a negative number for any other name.  Keys bound in
   ascending order (all of them, in a script the writer wrote) fill
   [keys]/[ids] and are found by binary search; the rest go to
   [others]. *)
type vars = {
  keys : int Vec.t;
  ids : Graph.node_id Vec.t;
  others : (int, Graph.node_id) Hashtbl.t;
  names : (string, int) Hashtbl.t;  (** a name not [n<k>] → its key *)
}

let key_of_name vars name =
  match numbered name 0 (String.length name) with
  | -1 -> (
      match Hashtbl.find_opt vars.names name with
      | Some k -> k
      | None ->
          let k = -1 - Hashtbl.length vars.names in
          Hashtbl.add vars.names name k;
          k)
  | k -> k

(* for messages *)
let name_of_key vars k =
  if k >= 0 then "n" ^ string_of_int k
  else Hashtbl.fold (fun name k' found -> if k = k' then name else found) vars.names ""

(* the variable of a node pattern, as a key *)
let read_var c vars =
  skip_ws c;
  match peek c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
      let start = c.i in
      let stop = ident_end c.s start in
      c.i <- stop;
      match numbered c.s start stop with
      | -1 -> key_of_name vars (String.sub c.s start (stop - start))
      | k -> k)
  | _ -> key_of_name vars (read_ident c)

let rec search keys k lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let m = Vec.get keys mid in
    if m = k then mid else if k < m then search keys k lo mid else search keys k (mid + 1) hi

(* the node bound to key [k], or -1 *)
let find_var vars k =
  let n = Vec.length vars.keys in
  let at =
    if k < 0 || n = 0 then -1
    else
      (* ids without gaps put [k] at [k - keys.(0)] *)
      let guess = k - Vec.get vars.keys 0 in
      if guess < n && guess >= 0 && Vec.get vars.keys guess = k then guess
      else search vars.keys k 0 n
  in
  if at >= 0 then Vec.get vars.ids at
  else match Hashtbl.find_opt vars.others k with Some id -> id | None -> -1

let bind_var c vars k id =
  let n = Vec.length vars.keys in
  if k >= 0 && (n = 0 || k > Vec.get vars.keys (n - 1)) then begin
    (* above every key in [keys], so above every key in [others] too *)
    Vec.push vars.keys k;
    Vec.push vars.ids id
  end
  else if find_var vars k >= 0 then fail c "variable `%s` is bound twice" (name_of_key vars k)
  else Hashtbl.add vars.others k id

let no_entries e =
  e.count <- 0;
  e.nulls <- 0

let rec same_keys (a : string array) b i =
  i = Array.length b || (String.equal a.(i) b.(i) && same_keys a b (i + 1))

(* the non-null entries of [e] as a key array and its values, in key
   order; the key array is [prev] when equal to it, else the share
   table's *)
let entry_arrays share e (prev : string array) =
  let n = e.count - e.nulls in
  if n = 0 then ([||], [||])
  else if e.nulls = 0 && e.ascending && n = Array.length prev && same_keys e.keys prev 0 then
    (prev, Array.sub e.vals 0 n)
  else begin
    let order = Array.make n 0 and j = ref 0 in
    for i = 0 to e.count - 1 do
      if not (Value.is_null e.vals.(i)) then begin
        order.(!j) <- i;
        incr j
      end
    done;
    if not e.ascending then
      Array.sort (fun p q -> String.compare e.keys.(p) e.keys.(q)) order;
    ( Share.keys share (Array.map (fun i -> e.keys.(i)) order),
      Array.map (fun i -> e.vals.(i)) order )
  end

(* What one entity predicts of the next of its kind: its labels (and
   their set), its key arrays and its type. *)
type decoder = {
  c : cursor;
  vars : vars;
  e : entries;
  mutable labels : string list;
  mutable label_set : Sset.t;
  mutable node_keys : string array;
  mutable rel_keys : string array;
  mutable r_type : string;
}

let rec read_labels c guess acc =
  skip_ws c;
  if peek c = ':' then begin
    c.i <- c.i + 1;
    match guess with
    | g :: guess -> read_labels c guess (read_name_as c g :: acc)
    | [] -> read_labels c [] (read_name_as c "" :: acc)
  end
  else List.rev acc

(* [(var:L… {…})]: the variable's key and the labels as written; the
   map is left in [d.e] *)
let read_node_pattern d =
  let c = d.c in
  expect c "(";
  let var = read_var c d.vars in
  let labels = read_labels c d.labels [] in
  skip_ws c;
  if peek c = '{' then read_entries c d.e d.node_keys else no_entries d.e;
  expect c ")";
  (var, labels)

let props_of d prev =
  let keys, vals = entry_arrays d.c.share d.e prev in
  if Array.length keys = 0 then (prev, Props.empty) else (keys, Props.of_arrays keys vals)

let endpoint d what (var, labels) =
  let c = d.c in
  if labels <> [] || d.e.count > 0 then
    fail c "relationship %s `%s` carries labels or properties" what (name_of_key d.vars var);
  match find_var d.vars var with
  | -1 -> fail c "relationship %s `%s` is unbound" what (name_of_key d.vars var)
  | id -> id

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
  let d =
    {
      c;
      vars =
        {
          keys = Vec.create ();
          ids = Vec.create ();
          others = Hashtbl.create 16;
          names = Hashtbl.create 16;
        };
      e = new_entries ();
      labels = [];
      label_set = Share.labels c.share [];
      node_keys = [||];
      rel_keys = [||];
      r_type = "";
    }
  in
  (* the script's entities in file order, with the ids creating them in
     that order would assign; the graph is built from them in one batch *)
  let nodes = Vec.create () and rels = Vec.create () in
  let next = ref (Graph.next_id g) in
  try
    if pos < 0 || pos > String.length s then fail c "start offset out of range";
    skip_ws c;
    if c.i >= String.length s then Ok g
    else begin
      expect c "CREATE";
      let more = ref true in
      while !more do
        let ((var, labels) as pattern) = read_node_pattern d in
        skip_ws c;
        if peek c = '-' then begin
          let src = endpoint d "source" pattern in
          expect c "-";
          expect c "[";
          expect c ":";
          let r_type = read_name_as c d.r_type in
          d.r_type <- r_type;
          skip_ws c;
          if peek c = '{' then read_entries c d.e d.rel_keys else no_entries d.e;
          let keys, r_props = props_of d d.rel_keys in
          d.rel_keys <- keys;
          expect c "]";
          expect c "->";
          let tgt = endpoint d "target" (read_node_pattern d) in
          Vec.push rels { Graph.r_id = !next; src; tgt; r_type; r_props };
          incr next
        end
        else begin
          bind_var c d.vars var !next;
          if not (List.equal String.equal labels d.labels) then begin
            d.labels <- labels;
            d.label_set <- Share.labels c.share labels
          end;
          let keys, n_props = props_of d d.node_keys in
          d.node_keys <- keys;
          Vec.push nodes { Graph.n_id = !next; labels = d.label_set; n_props };
          incr next
        end;
        skip_ws c;
        match peek c with
        | ',' -> c.i <- c.i + 1
        | ';' ->
            c.i <- c.i + 1;
            more := false
        | _ -> fail c "expected ',' or ';' after a pattern"
      done;
      at_end c;
      (* every endpoint is a variable the script bound, so the batch's
         own preconditions hold *)
      Ok (Graph.add_batch g (Vec.to_array nodes) (Vec.to_array rels))
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
