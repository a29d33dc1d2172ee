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
   oracle 7 snapshots, checked here directly against the dump contract *)
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

let suite =
  literal_tests @ ident_tests @ shape_tests @ fuzz_population_tests
  @ reader_tests @ decode_tests @ float_tests @ sharing_tests
