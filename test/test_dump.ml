(** Dump round-trip exactness: dump → parse → execute → isomorphic,
    and dump → [Dump.of_cypher] → the very graph executing it builds.

    The snapshot subsystem stands on [Dump.to_cypher], so the dump must
    be round-trip exact for {e every} storable graph — including the
    adversarial corners pretty-printing never meets: reparse-exact
    floats, nan/infinity, [min_int], identifiers needing backtick
    quoting (with embedded backticks), keyword-shaped labels, control
    characters in strings, self-loops and parallel edges.  Every
    round-trip below also decodes the dump with the reader and requires
    the executed graph back exactly (same script, same ids). *)

open Cypher_graph
open Test_util
module Api = Cypher_core.Api
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let find_sub haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = if i + nl > hl then -1 else if String.sub haystack i nl = needle then i else go (i + 1) in
  go 0

let reload g =
  let script = Dump.to_cypher g in
  if script = "" then Graph.empty
  else
    match Api.run_program ~config:Config.permissive Graph.empty script with
    | Ok (g', _) -> g'
    | Error e ->
        Alcotest.failf "dump did not reload: %s\n%s" (Errors.to_string e) script

(* [g] reloads isomorphically, and the decoder builds exactly what
   executing the dump built: same dump (entity ids included) and same
   id counter *)
let check_roundtrip ?(msg = "isomorphic") g =
  let executed = reload g in
  Alcotest.check graph_iso_testable msg g executed;
  let script = Dump.to_cypher g in
  match Dump.of_cypher Graph.empty script with
  | Error e -> Alcotest.failf "dump did not decode: %s\n%s" e script
  | Ok decoded ->
      Alcotest.(check string) "decoded = executed" (Dump.to_cypher executed)
        (Dump.to_cypher decoded);
      Alcotest.(check int) "next_id" (Graph.next_id executed) (Graph.next_id decoded)

let node_with props =
  let _, g = Graph.create_node ~labels:[ "N" ] ~props:(Props.of_list props) Graph.empty in
  g

let vfloat f = Value.Float f

let literal_tests =
  [
    case "value_literal renders min_int to an expression that reparses" (fun () ->
        Alcotest.(check string) "min_int"
          (Printf.sprintf "(-%d - 1)" max_int)
          (Dump.value_literal (Value.Int min_int)));
    case "extreme and awkward numbers round-trip" (fun () ->
        check_roundtrip
          (node_with
             [
               ("min", Value.Int min_int);
               ("max", Value.Int max_int);
               ("tenth", vfloat 0.1);
               ("tiny", vfloat 5e-324);
               ("huge", vfloat 1.7976931348623157e308);
               ("third", vfloat (1.0 /. 3.0));
               ("negzero", vfloat (-0.0));
               ("intish", vfloat 3.0);
               ("big_intish", vfloat 1e20);
             ]));
    case "non-finite floats round-trip as constant expressions" (fun () ->
        check_roundtrip
          (node_with
             [
               ("nan", vfloat Float.nan);
               ("inf", vfloat Float.infinity);
               ("ninf", vfloat Float.neg_infinity);
             ]));
    case "string escapes round-trip" (fun () ->
        check_roundtrip
          (node_with
             [
               ("quote", vstr "it's");
               ("backslash", vstr "a\\b");
               ("newline", vstr "line1\nline2");
               ("tab", vstr "a\tb");
               ("controls", vstr "\x00\x01\x1f");
               ("unicodeish", vstr "caf\xc3\xa9");
             ]));
    case "nested lists and maps round-trip with quoted keys" (fun () ->
        check_roundtrip
          (node_with
             [
               ( "l",
                 vlist
                   [
                     vint 1;
                     vstr "it's";
                     vlist [ vbool true; vfloat 2.5 ];
                     Value.Map
                       (Cypher_util.Maps.Smap.of_seq
                          (List.to_seq
                             [ ("plain", vint 1); ("weird key", vstr "v") ]));
                   ] );
             ]));
    case "entity-valued properties are refused" (fun () ->
        match Dump.value_literal (Value.Node 3) with
        | exception Invalid_argument _ -> ()
        | s -> Alcotest.failf "expected Invalid_argument, got %s" s);
  ]

let ident_tests =
  [
    case "quote_ident doubles embedded backticks" (fun () ->
        Alcotest.(check string) "doubled" "`a``b`" (Dump.quote_ident "a`b");
        Alcotest.(check string) "plain untouched" "plain" (Dump.quote_ident "plain"));
    case "labels, keys and types needing quoting round-trip" (fun () ->
        let _, g =
          Graph.create_node
            ~labels:[ "Oddly Labeled"; "with`tick"; "123start" ]
            ~props:(Props.of_list [ ("strange key", vint 1); ("a`b", vint 2) ])
            Graph.empty
        in
        let id2, g = Graph.create_node g in
        let _, g =
          Graph.create_rel ~src:id2 ~tgt:id2 ~r_type:"odd type"
            ~props:(Props.of_list [ ("k v", vint 3) ])
            g
        in
        check_roundtrip g);
    case "keyword-shaped identifiers round-trip" (fun () ->
        (* the lexer has no reserved words — MATCH/CREATE/DELETE are
           contextual — so these must survive without quoting *)
        let _, g =
          Graph.create_node ~labels:[ "MATCH"; "DELETE" ]
            ~props:(Props.of_list [ ("create", vint 1); ("return", vint 2) ])
            Graph.empty
        in
        check_roundtrip g);
  ]

let shape_tests =
  [
    case "self-loops and parallel edges round-trip" (fun () ->
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let b, g = Graph.create_node ~labels:[ "B" ] g in
        let _, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"LOOP" g in
        let _, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let _, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let _, g = Graph.create_rel ~src:b ~tgt:a ~r_type:"T" g in
        check_roundtrip g);
    case "dumps preserve id order so replay ids are a monotone remap" (fun () ->
        (* delete a middle node: ids 0,2 survive; the dump must list n0
           before n2 so the reloaded graph numbers them 0,1 in order *)
        let g = graph_of "CREATE (:A {k: 0}), (:B {k: 1}), (:C {k: 2})" in
        let g = run_graph ~config:Config.revised g "MATCH (b:B) DELETE b" in
        let script = Dump.to_cypher g in
        let a_pos = find_sub script ":A" and c_pos = find_sub script ":C" in
        Alcotest.(check bool) "both present" true (a_pos >= 0 && c_pos >= 0);
        Alcotest.(check bool) "A before C" true (a_pos < c_pos);
        check_roundtrip g);
    case "dangling graphs are refused with the offending ids" (fun () ->
        (* even legacy semantics reject a statement ending dangling, so
           force the state at the graph layer directly *)
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let b, g = Graph.create_node ~labels:[ "B" ] g in
        let _, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let g = Graph.remove_node_force g a in
        Alcotest.(check bool) "dangling" false (Graph.is_wellformed g);
        match Dump.to_cypher g with
        | exception Invalid_argument m ->
            Alcotest.(check bool) "message names the damage" true
              (contains m "dangling")
        | _ -> Alcotest.fail "expected Invalid_argument");
    case "empty graph dumps to the empty script" (fun () ->
        Alcotest.(check string) "empty" "" (Dump.to_cypher Graph.empty));
  ]

(* the fuzz generator's graphs, across many seeds: the same population
   oracle 6 snapshots, checked here directly against the dump contract *)
let fuzz_population_tests =
  [
    case "fuzz-generated graphs round-trip (300 seeds)" (fun () ->
        for seed = 0 to 299 do
          let rng = Cypher_fuzz.Rng.make seed in
          let g = Cypher_fuzz.Gen.graph rng in
          check_roundtrip ~msg:(Printf.sprintf "seed %d" seed) g
        done);
  ]

(* ------------------------------------------------------------------ *)
(* The literal reader                                                 *)
(* ------------------------------------------------------------------ *)

(* bit-exact, with every nan equal to every nan *)
let rec same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y)
      || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.List xs, Value.List ys ->
      List.length xs = List.length ys && List.for_all2 same_value xs ys
  | Value.Map xm, Value.Map ym -> Cypher_util.Maps.Smap.equal same_value xm ym
  | (Value.Float _ | Value.List _ | Value.Map _), _ -> false
  | _ -> a = b

let vmap l = Value.Map (Cypher_util.Maps.smap_of_list l)

(* the values the round-trip cases above store, plus the shapes only a
   literal can take (nested maps with awkward keys, empty containers) *)
let population =
  [
    vnull; vbool true; vbool false; vint 0; vint (-7);
    vint min_int; vint max_int; vint (-max_int);
    vfloat 0.1; vfloat 5e-324; vfloat 1.7976931348623157e308;
    vfloat (1.0 /. 3.0); vfloat (-0.0); vfloat 0.0; vfloat 3.0; vfloat 1e20;
    vfloat (-2.5e-7); vfloat 123456789012.5; vfloat 1234567890123456.0;
    vfloat (-98765432109876544.0); vfloat Float.nan;
    vfloat Float.infinity; vfloat Float.neg_infinity;
    vstr ""; vstr "it's"; vstr "a\\b"; vstr "line1\nline2"; vstr "a\tb";
    vstr "\r\b\012"; vstr "\x00\x01\x1f"; vstr "caf\xc3\xa9"; vstr "`{}[],:";
    vlist []; vmap [];
    vlist [ vint 1; vstr "it's"; vlist [ vbool true; vfloat 2.5 ]; vnull ];
    vmap [ ("plain", vint 1); ("weird key", vstr "v"); ("a`b", vlist [ vfloat Float.nan ]) ];
    vmap [ ("outer", vmap [ ("``", vmap []); ("x y", vlist [ vint min_int ]) ]) ];
  ]

let reader_tests =
  [
    case "read_value inverts value_literal over the population" (fun () ->
        List.iter
          (fun v ->
            let lit = Dump.value_literal v in
            match Dump.read_value lit with
            | Ok v' ->
                if not (same_value v v') then
                  Alcotest.failf "%s read back as %s" lit (Value.to_string v')
            | Error e -> Alcotest.failf "%s did not read: %s" lit e)
          population);
    case "read_value agrees with the lexer on what a scalar is" (fun () ->
        (* digits alone are an integer, as the query language reads them *)
        List.iter
          (fun (text, v) ->
            match Dump.read_value text with
            | Ok v' when same_value v v' -> ()
            | Ok v' -> Alcotest.failf "%s read as %s" text (Value.to_string v')
            | Error e -> Alcotest.failf "%s: %s" text e)
          [ ("1234567890123456", vint 1234567890123456); ("1e+20", vfloat 1e20);
            ("-0.0", vfloat (-0.0)); ("\t[ 1 ,2 ]\n", vlist [ vint 1; vint 2 ]);
            ("'\\u00e9'", vstr "\xc3\xa9") ]);
    case "read_value refuses what value_literal never writes" (fun () ->
        List.iter
          (fun text ->
            match Dump.read_value text with
            | Error _ -> ()
            | Ok v -> Alcotest.failf "%S read as %s" text (Value.to_string v))
          [ ""; "nul"; "'abc"; "'a\\qb'"; "'\\u12'"; "'\\ud800'"; "\"dq\"";
            "[1, 2"; "[1 2]"; "{a: 1, a: 2}"; "{a 1}"; "{`a: 1}"; "1 2"; "-";
            "4611686018427387904"; "(1.0 / 2.0)"; "(0.0/0.0)"; "1e"; "$p" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Decoding builds what creating one entity at a time builds          *)
(* ------------------------------------------------------------------ *)

(* executing [script] on [base]: one [create_node]/[create_rel] per
   entity, in file order *)
let executed base script =
  match Api.run_program ~config:Config.permissive base script with
  | Ok (g, _) -> g
  | Error e -> Alcotest.failf "script did not execute: %s\n%s" (Errors.to_string e) script

let decoded base script =
  match Dump.of_cypher base script with
  | Ok g -> g
  | Error e -> Alcotest.failf "script did not decode: %s\n%s" e script

let decode_tests =
  [
    case "decoding equals the per-entity sequence on random graphs" (fun () ->
        for seed = 1 to 40 do
          let rng = Random.State.make [| seed |] in
          let g = apply_steps Graph.empty (random_steps rng ~nodes:[||] ~next_id:0 ~count:(Random.State.int rng 50)) in
          let script = Dump.to_cypher g in
          List.iter
            (fun base ->
              check_same_graph (Printf.sprintf "seed %d" seed) (executed base script)
                (decoded base script))
            [ Graph.empty; indexed_base () ]
        done);
    case "a script interleaving nodes and relationships decodes in file order" (fun () ->
        let script =
          "CREATE (n0:A:B {k: 1}), (n0)-[:R {w: 1.5}]->(n0), (x:A {k: 1.0}), \
           (x)-[:S]->(n0), (n0)-[:S]->(x), (n0)-[:S]->(x), (y), (y)-[:R]->(x);"
        in
        List.iter
          (fun base -> check_same_graph "interleaved" (executed base script) (decoded base script))
          [ Graph.empty; indexed_base () ]);
    case "malformed scripts are errors, never exceptions" (fun () ->
        List.iter
          (fun (script, sub) ->
            match Dump.of_cypher Graph.empty script with
            | Ok _ -> Alcotest.failf "%S decoded" script
            | Error e ->
                if not (contains e sub) then Alcotest.failf "%S: %S lacks %S" script e sub)
          [ ("CREATE (n0), (n0)-[:R]->(n1);", "target `n1` is unbound");
            ("CREATE (n0), (n1)-[:R]->(n0);", "source `n1` is unbound");
            ("CREATE (n0), (n0);", "variable `n0` is bound twice");
            ("CREATE (n0), (n0:A)-[:R]->(n0);", "source `n0` carries labels or properties");
            ("CREATE (n0), (n0)-[:R]->(n0 {k: 1});", "target `n0` carries labels or properties");
            ("CREATE (n0); x", "trailing bytes");
            ("CREATE (n0)", "expected ',' or ';'") ]);
  ]

let float_tests =
  [
    case "integral floats from 1e15 to 1e17 stay floats" (fun () ->
        List.iter
          (fun f ->
            let lit = Dump.value_literal (vfloat f) in
            match Dump.read_value lit with
            | Ok (Value.Float f') when Float.equal f f' -> ()
            | Ok v -> Alcotest.failf "%s read back as %s" lit (Value.to_string v)
            | Error e -> Alcotest.failf "%s: %s" lit e)
          [ 1e15; 1234567890123456.0; -1234567890123456.0; 98765432109876544.0; 1e17 ];
        check_roundtrip (node_with [ ("x", vfloat 1234567890123456.0) ]));
  ]

(* ------------------------------------------------------------------ *)
(* Decoding stores what repeats once                                  *)
(* ------------------------------------------------------------------ *)

let bits = function
  | Value.Float f -> Int64.bits_of_float f
  | v -> Alcotest.failf "%s is not a float" (Value.to_string v)

let sharing_tests =
  let script =
    "CREATE (n0:Person {age: 30, city: 'x', ok: true, f: 0.0, l: [1]}), \
     (n1:Person {age: 30, city: 'x', ok: true, f: -0.0, l: [1]}), \
     (n2:Admin:Person {f: (0.0 / 0.0)}), (n3:Admin:Person {f: (0.0 / 0.0)}), \
     (n0)-[:T {w: 30}]->(n1), (n1)-[:T {w: 30}]->(n0);"
  in
  let node g i = Graph.node_exn g i in
  let prop g i k = Props.get (node g i).Graph.n_props k in
  [
    case "decoded entities share equal label sets and scalars" (fun () ->
        let g = decoded Graph.empty script in
        Alcotest.(check bool) "labels" true ((node g 0).Graph.labels == (node g 1).Graph.labels);
        Alcotest.(check bool) "two-label sets" true
          ((node g 2).Graph.labels == (node g 3).Graph.labels);
        List.iter
          (fun k -> Alcotest.(check bool) k true (prop g 0 k == prop g 1 k))
          [ "age"; "city"; "ok" ];
        let w r = Props.get (Graph.rel_exn g r).Graph.r_props "w" in
        Alcotest.(check bool) "relationship value" true (w 4 == w 5);
        Alcotest.(check bool) "across entity kinds" true (w 4 == prop g 0 "age");
        let props i = (node g i).Graph.n_props and rprops r = (Graph.rel_exn g r).Graph.r_props in
        Alcotest.(check bool) "key array" true (Props.shares_keys (props 0) (props 1));
        Alcotest.(check bool) "one-key array" true (Props.shares_keys (props 2) (props 3));
        Alcotest.(check bool) "relationship key array" true (Props.shares_keys (rprops 4) (rprops 5)));
    case "floats keep their bits: 0.0, -0.0 and NaN are never shared" (fun () ->
        let g = decoded Graph.empty script in
        Alcotest.(check int64) "0.0" (Int64.bits_of_float 0.0) (bits (prop g 0 "f"));
        Alcotest.(check int64) "-0.0" (Int64.bits_of_float (-0.0)) (bits (prop g 1 "f"));
        Alcotest.(check bool) "nan" true
          (Float.is_nan (Int64.float_of_bits (bits (prop g 2 "f")))));
    case "(0.0 / 0.0) reads as the nan evaluating it gives, sign bit included" (fun () ->
        let evaluated = first_cell (run_table Graph.empty "RETURN 0.0 / 0.0 AS x") in
        match Dump.read_value "(0.0 / 0.0)" with
        | Ok v -> Alcotest.(check int64) "bits" (bits evaluated) (bits v)
        | Error m -> Alcotest.fail m);
    case "an update on one node leaves the other's shared value alone" (fun () ->
        let g = decoded Graph.empty script in
        let before = (node g 1).Graph.n_props in
        let g = run_graph g "MATCH (n:Person) WHERE id(n) = 0 SET n.age = n.age + 1, n.city = 'y'" in
        Alcotest.(check bool) "other map untouched" true ((node g 1).Graph.n_props == before);
        Alcotest.(check bool) "updated keeps the key array" true
          (Props.shares_keys (node g 0).Graph.n_props before);
        let g = run_graph g "MATCH (n:Person) WHERE id(n) = 0 REMOVE n:Person SET n:Other" in
        check_value "updated" (vint 31) (prop g 0 "age");
        check_value "other age" (vint 30) (prop g 1 "age");
        check_value "other city" (vstr "x") (prop g 1 "city");
        Alcotest.(check (list string)) "other labels" [ "Person" ] (Graph.labels_of g 1);
        Alcotest.(check (list string)) "updated labels" [ "Other" ] (Graph.labels_of g 0);
        check_same_graph "after updates" g (executed Graph.empty (Dump.to_cypher g)));
  ]

(* ------------------------------------------------------------------ *)
(* The decoder against the one it replaced                            *)
(* ------------------------------------------------------------------ *)

(* The recursive-descent decoder [Dump.of_cypher] had before it read
   maps into arrays and variables as numbers, kept verbatim as the
   reference: whatever script either is given, both must build the same
   graph or fail with the same message. *)
module Reference = struct
  open Cypher_util.Maps

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
      (fun v -> (Dump.value_literal v, v))
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

  (* [of_cypher g s] applies the script [s], as written by {!to_cypher},
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
        Ok (Graph.add_batch g (Array.of_list (List.rev !nodes)) (Array.of_list (List.rev !rels)))
      end
    with Bad m -> Error ("dump script: " ^ m)
end

(* A script in the writer's grammar, perturbed the ways a reader may
   meet: variables that are not the writer's [n<id>] (other names,
   leading zeros, backticks, gapped or descending ids, rebinding,
   unbound endpoints), keys out of order, [null] values, duplicate
   keys, endpoints with labels or maps, extra whitespace, and now and
   then a byte dropped or changed. *)
let perturbed_script rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let chance p = Random.State.float rng 1.0 < p in
  let buf = Buffer.create 256 in
  let add s = Buffer.add_string buf s in
  let ws () = if chance 0.2 then add (pick [| " "; "  "; "\n"; "\t"; "\r\n   " |]) in
  let tok s =
    ws ();
    add s
  in
  let scalar () =
    if chance 0.01 then pick [| "4611686018427387904"; "-4611686018427387904"; "1e"; "'\\q'" |]
    else
    pick
      [| "1"; "-7"; "0"; "007"; "30"; "4611686018427387903"; "2.5"; "1e3"; "-0.0"; "1.5E-3"; "'s'"; "'it\\'s'"; "''";
         "'\\u00e9'"; "true"; "false"; "null"; "(0.0 / 0.0)"; "(1.0 / 0.0)";
         "(-1.0 / 0.0)"; "(-4611686018427387903 - 1)"; "[1, 'a', null]"; "[]";
         "{a: 1, b: null}"; "{}"; "[1.0, [true]]" |]
  in
  let keys = [| "k"; "w"; "a"; "z"; "name"; "`we ird`"; "`a``b`" |] in
  let map () =
    (* distinct keys, ascending as the writer writes them or shuffled,
       and now and then one repeated with a [null] on one side *)
    let ks = List.sort_uniq compare (List.init (Random.State.int rng 5) (fun _ -> pick keys)) in
    let ks =
      if chance 0.3 then List.map snd (List.sort compare (List.map (fun k -> (Random.State.bits rng, k)) ks))
      else ks
    in
    let dup = if chance 0.05 && ks <> [] then Some (List.length ks - 1) else None in
    let entry i k =
      if i > 0 then tok ",";
      tok k;
      tok ":";
      tok (if chance 0.15 then "null" else scalar ())
    in
    tok "{";
    List.iteri entry ks;
    Option.iter
      (fun i ->
        tok ",";
        tok (List.nth ks i);
        tok ":";
        tok "null")
      dup;
    tok "}"
  in
  let bound = ref [] and next_k = ref (Random.State.int rng 3) in
  let fresh_var () =
    match Random.State.int rng 40 with
    | 0 -> pick [| "x"; "y"; "_a"; "n"; "N1"; "n01"; "n007"; "`odd var`"; "n99999999999999999999" |]
    | 1 -> "`n" ^ string_of_int !next_k ^ "`"
    | 2 when !bound <> [] -> pick (Array.of_list !bound)
    | 3 -> "n" ^ string_of_int (Random.State.int rng 40)
    | _ ->
        next_k := !next_k + 1 + (if chance 0.3 then Random.State.int rng 5 else 0);
        "n" ^ string_of_int !next_k
  in
  let endpoint () =
    tok "(";
    tok
      (if !bound = [] || chance 0.02 then "n" ^ string_of_int (Random.State.int rng 50)
       else pick (Array.of_list !bound));
    if chance 0.01 then tok ":A";
    if chance 0.02 then map ();
    tok ")"
  in
  if chance 0.05 then add (pick [| ""; "  \n" |])
  else begin
    tok "CREATE";
    let fragments = 1 + Random.State.int rng 12 in
    for f = 1 to fragments do
      if f > 1 then tok ",";
      if !bound <> [] && chance 0.45 then begin
        endpoint ();
        tok "-";
        tok "[";
        tok ":";
        tok (pick [| "R"; "S"; "`odd type`" |]);
        if chance 0.4 then map ();
        tok "]";
        tok "->";
        endpoint ()
      end
      else begin
        let v = fresh_var () in
        tok "(";
        tok v;
        for _ = 1 to Random.State.int rng 3 do
          tok ":";
          tok (pick [| "A"; "B"; "`Odd L`" |])
        done;
        if chance 0.7 then map ();
        tok ")";
        bound := v :: !bound
      end
    done;
    if not (chance 0.03) then tok ";";
    ws ();
    if chance 0.03 then add " x"
  end;
  let s = Buffer.contents buf in
  if String.length s > 0 && chance 0.08 then begin
    let i = Random.State.int rng (String.length s) in
    if chance 0.5 then String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
    else String.mapi (fun j ch -> if j = i then pick [| '('; ','; '`'; ' '; '1'; '\'' |] else ch) s
  end
  else s

(* the script, and a dump of a random graph now and then *)
let decoder_input =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map
        (fun seed ->
          let rng = Random.State.make [| seed |] in
          if Random.State.int rng 5 = 0 then
            Dump.to_cypher
              (apply_steps Graph.empty
                 (random_steps rng ~nodes:[||] ~next_id:0 ~count:(Random.State.int rng 30)))
          else perturbed_script rng)
        int)

let decoder_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"the decoder builds what the reference decoder builds"
       decoder_input
       (fun script ->
         List.for_all
           (fun base ->
             match (Reference.of_cypher base script, Dump.of_cypher base script) with
             | Ok want, Ok got ->
                 check_same_graph "decoded" want got;
                 true
             | Error want, Error got -> String.equal want got || QCheck.Test.fail_reportf "%s\nvs\n%s" want got
             | Ok _, Error e -> QCheck.Test.fail_reportf "only the reference decodes it; got %s" e
             | Error e, Ok _ -> QCheck.Test.fail_reportf "only the new decoder decodes it; reference: %s" e)
           [ Graph.empty; indexed_base () ]))

let differential_tests =
  [
    decoder_property;
    case "the decoder agrees with the reference on a start offset" (fun () ->
        let script = "// index: A k\nCREATE (n0:A {k: 1}), (n1), (n1)-[:R]->(n0);\n" in
        let pos = String.index script '\n' + 1 in
        match (Reference.of_cypher ~pos Graph.empty script, Dump.of_cypher ~pos Graph.empty script) with
        | Ok want, Ok got -> check_same_graph "offset" want got
        | _ -> Alcotest.fail "the script did not decode");
  ]

let suite =
  literal_tests @ ident_tests @ shape_tests @ fuzz_population_tests
  @ reader_tests @ decode_tests @ float_tests @ sharing_tests @ differential_tests
