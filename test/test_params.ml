(** Parameterized queries, prepared statements, and the session plan
    cache.

    Covers the `$param` surface end-to-end: binding resolution in every
    clause position (WHERE, property maps, FOREACH, MERGE, SKIP/LIMIT),
    the parameter/variable namespace split, the strict pre-execution
    bound check with source positions, the {!Api.prepare} /
    {!Api.execute} API, the session LRU (hits, misses, eviction order,
    capacity, normalization, config fingerprinting), invalidation on
    property-index registration (no stale plan may be served), and the
    journaling of parameter bindings through the WAL — including replay
    after a simulated crash. *)

open Cypher_graph
open Cypher_util.Maps
open Test_util
module Session = Cypher_core.Session
module Plan_cache = Cypher_core.Plan_cache
module Config = Cypher_core.Config
module Api = Cypher_core.Api
module Errors = Cypher_core.Errors
module Wal = Cypher_storage.Wal
module Recovery = Cypher_storage.Recovery

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains name sub s =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S appears in %S" name sub s)
    true (contains ~sub s)

let params_of l =
  List.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty l

let config_with ps = Config.with_params (params_of ps) Config.revised

let run_ok s src =
  match Session.run s src with
  | Ok r -> r
  | Error e -> Alcotest.failf "session run failed: %s" (Errors.to_string e)

(* ------------------------------------------------------------------ *)
(* Parameter evaluation across clause positions                       *)
(* ------------------------------------------------------------------ *)

let binding_tests =
  [
    case "params reach WHERE, property maps and RETURN" (fun () ->
        let config =
          config_with [ ("id", vint 7); ("name", vstr "ada") ]
        in
        let g =
          run_graph ~config Graph.empty
            "CREATE (:User {id: $id, name: $name})"
        in
        let t =
          run_table ~config g
            "MATCH (u:User) WHERE u.id = $id RETURN u.name AS n"
        in
        check_value "name" (vstr "ada") (first_cell t));
    case "params inside FOREACH bodies" (fun () ->
        let config = config_with [ ("xs", vlist [ vint 1; vint 2; vint 3 ]);
                                   ("off", vint 10) ] in
        let g =
          run_graph ~config Graph.empty
            "FOREACH (i IN $xs | CREATE (:N {v: i + $off}))"
        in
        let t = run_table ~config g "MATCH (n:N) RETURN n.v AS v ORDER BY v" in
        Alcotest.(check (list string))
          "values" [ "11"; "12"; "13" ]
          (List.map Value.to_string (column t "v")));
    case "params inside MERGE patterns and ON CREATE" (fun () ->
        let config = config_with [ ("id", vint 3) ] in
        let g =
          run_graph ~config Graph.empty
            "MERGE ALL (n:P {id: $id}) ON CREATE SET n.fresh = true"
        in
        (* second MERGE with the same binding must match, not create *)
        let g' =
          run_graph ~config g
            "MERGE ALL (n:P {id: $id}) ON CREATE SET n.dup = true"
        in
        Alcotest.(check int) "one node" 1 (Graph.node_count g');
        let t = run_table ~config g' "MATCH (n:P) RETURN n.dup AS d" in
        check_value "no ON CREATE on match" vnull (first_cell t));
    case "SKIP and LIMIT accept parameters" (fun () ->
        let config = config_with [ ("s", vint 2); ("l", vint 3) ] in
        let t =
          run_table ~config Graph.empty
            "UNWIND range(1, 10) AS x RETURN x SKIP $s LIMIT $l"
        in
        Alcotest.(check (list string))
          "window" [ "3"; "4"; "5" ]
          (List.map Value.to_string (column t "x")));
    case "parameters and variables are separate namespaces" (fun () ->
        let config = config_with [ ("p", vint 10) ] in
        let t =
          run_table ~config Graph.empty "WITH 5 AS p RETURN $p + p AS s"
        in
        check_value "param plus variable" (vint 15) (first_cell t));
    case "an alias may shadow a parameter's name without capturing it"
      (fun () ->
        let config = config_with [ ("xs", vlist [ vint 1; vint 2 ]) ] in
        let t =
          run_table ~config Graph.empty "UNWIND $xs AS xs RETURN xs + $xs[0] AS y"
        in
        Alcotest.(check (list string))
          "rows" [ "2"; "3" ]
          (List.map Value.to_string (column t "y")));
  ]

(* ------------------------------------------------------------------ *)
(* The strict pre-execution bound check, with source positions        *)
(* ------------------------------------------------------------------ *)

let unbound_tests =
  [
    case "unbound parameters are rejected before execution" (fun () ->
        let e = run_err Graph.empty "RETURN $nope" in
        check_contains "names the parameter" "$nope" (Errors.to_string e);
        check_contains "carries the position" "line 1, column 8"
          (Errors.to_string e));
    case "the position is the $'s own, deep in the statement" (fun () ->
        let e =
          run_err Graph.empty "MATCH (n) WHERE n.id = $missing RETURN n"
        in
        check_contains "position" "line 1, column 24" (Errors.to_string e));
    case "the check fires even when no row would evaluate the parameter"
      (fun () ->
        (* no :Ghost nodes exist, so lazy evaluation would never touch
           $p — the strict check must still reject the statement *)
        let e = run_err Graph.empty "MATCH (g:Ghost) WHERE g.x = $p RETURN g" in
        check_contains "rejected up front" "$p" (Errors.to_string e));
    case "EXPLAIN skips the bound check" (fun () ->
        match Api.run_string_full Graph.empty "EXPLAIN RETURN $later" with
        | Ok r -> Alcotest.(check bool) "has a plan" true (r.Api.r_plan <> None)
        | Error e ->
            Alcotest.failf "EXPLAIN rejected: %s" (Errors.to_string e));
  ]

(* ------------------------------------------------------------------ *)
(* prepare / execute                                                  *)
(* ------------------------------------------------------------------ *)

let prepare_ok ?config src =
  match Api.prepare ?config src with
  | Ok p -> p
  | Error e -> Alcotest.failf "prepare failed: %s" (Errors.to_string e)

let execute_ok p ps g =
  match Api.execute p (params_of ps) g with
  | Ok o -> o
  | Error e -> Alcotest.failf "execute failed: %s" (Errors.to_string e)

let prepared_tests =
  [
    case "prepare once, execute under fresh bindings" (fun () ->
        let p = prepare_ok "CREATE (n:K {v: $x}) RETURN n.v AS v" in
        let o1 = execute_ok p [ ("x", vint 1) ] Graph.empty in
        check_value "first" (vint 1) (first_cell o1.Api.table);
        let o2 = execute_ok p [ ("x", vint 2) ] o1.Api.graph in
        check_value "rebound" (vint 2) (first_cell o2.Api.table);
        Alcotest.(check int) "both applied" 2 (Graph.node_count o2.Api.graph));
    case "prepared_params reports names and positions" (fun () ->
        let p = prepare_ok "MATCH (u {id: $uid}) WHERE u.x > $min RETURN u" in
        Alcotest.(check (list (pair string (pair int int))))
          "first-occurrence order"
          [ ("uid", (1, 15)); ("min", (1, 34)) ]
          (Api.prepared_params p));
    case "executing without a binding fails with the span" (fun () ->
        let p = prepare_ok "RETURN $a + $b AS s" in
        match Api.execute p (params_of [ ("a", vint 1) ]) Graph.empty with
        | Ok _ -> Alcotest.fail "unbound $b must be rejected"
        | Error e ->
            check_contains "names $b" "$b" (Errors.to_string e);
            check_contains "position" "line 1, column 13" (Errors.to_string e));
    case "execute bindings override preparation-config bindings" (fun () ->
        let p =
          prepare_ok ~config:(config_with [ ("x", vint 1) ]) "RETURN $x AS x"
        in
        let o = execute_ok p [ ("x", vint 99) ] Graph.empty in
        check_value "override wins" (vint 99) (first_cell o.Api.table);
        (* and with no explicit binding the preparation config's is used *)
        let o' = execute_ok p [] Graph.empty in
        check_value "config binding" (vint 1) (first_cell o'.Api.table));
    case "a prepared statement stays correct after index registration"
      (fun () ->
        let g =
          run_graph Graph.empty
            "UNWIND range(1, 50) AS i CREATE (:User {id: i})"
        in
        (* prepared with the binding so EXPLAIN can anchor on it *)
        let p =
          prepare_ok
            ~config:(config_with [ ("uid", vint 17) ])
            "MATCH (u:User {id: $uid}) RETURN u.id AS id"
        in
        let o1 = execute_ok p [ ("uid", vint 17) ] g in
        check_value "before index" (vint 17) (first_cell o1.Api.table);
        (* registering the index changes the optimal plan; the memoized
           plan must not survive the fingerprint change *)
        let g' = Graph.add_prop_index ~label:"User" ~key:"id" g in
        check_contains "plan now uses the index" "prop index"
          (Api.prepared_plan p g');
        let o2 = execute_ok p [ ("uid", vint 17) ] g' in
        check_value "after index" (vint 17) (first_cell o2.Api.table);
        Alcotest.(check int) "one row" 1 (Cypher_table.Table.row_count o2.Api.table));
  ]

(* ------------------------------------------------------------------ *)
(* The LRU itself                                                     *)
(* ------------------------------------------------------------------ *)

let lru_tests =
  [
    case "eviction follows recency, not insertion" (fun () ->
        let c : int Plan_cache.t = Plan_cache.create 2 in
        Plan_cache.add c "a" 1;
        Plan_cache.add c "b" 2;
        (* touch a: b becomes the LRU entry *)
        Alcotest.(check (option int)) "a hits" (Some 1) (Plan_cache.find c "a");
        Plan_cache.add c "c" 3;
        Alcotest.(check (option int)) "b evicted" None (Plan_cache.peek c "b");
        Alcotest.(check (option int)) "a kept" (Some 1) (Plan_cache.peek c "a");
        Alcotest.(check (option int)) "c kept" (Some 3) (Plan_cache.peek c "c");
        let s = Plan_cache.stats c in
        Alcotest.(check int) "one eviction" 1 s.Plan_cache.evictions);
    case "replacing a key never evicts" (fun () ->
        let c : int Plan_cache.t = Plan_cache.create 2 in
        Plan_cache.add c "a" 1;
        Plan_cache.add c "b" 2;
        Plan_cache.add c "a" 10;
        Alcotest.(check int) "still two" 2 (Plan_cache.length c);
        Alcotest.(check (option int)) "replaced" (Some 10) (Plan_cache.peek c "a");
        Alcotest.(check int) "no evictions" 0
          (Plan_cache.stats c).Plan_cache.evictions);
    case "capacity 0 stores nothing" (fun () ->
        let c : int Plan_cache.t = Plan_cache.create 0 in
        Plan_cache.add c "a" 1;
        Alcotest.(check int) "empty" 0 (Plan_cache.length c);
        Alcotest.(check (option int)) "miss" None (Plan_cache.find c "a");
        Alcotest.(check int) "one miss" 1 (Plan_cache.stats c).Plan_cache.misses);
    case "invalidate empties and counts once" (fun () ->
        let c : int Plan_cache.t = Plan_cache.create 4 in
        Plan_cache.add c "a" 1;
        Plan_cache.add c "b" 2;
        Plan_cache.invalidate c;
        Alcotest.(check int) "empty" 0 (Plan_cache.length c);
        Alcotest.(check int) "counted" 1
          (Plan_cache.stats c).Plan_cache.invalidations);
  ]

(* ------------------------------------------------------------------ *)
(* The session statement cache                                        *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    case "repeat statements hit; distinct statements miss" (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:A)");
        ignore (run_ok s "CREATE (:A)");
        ignore (run_ok s "CREATE (:B)");
        let st = Session.cache_stats s in
        Alcotest.(check int) "hits" 1 st.Plan_cache.hits;
        Alcotest.(check int) "misses" 2 st.Plan_cache.misses);
    case "normalization: whitespace and trailing ; share one entry"
      (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:A)");
        ignore (run_ok s "  CREATE (:A);  ");
        let st = Session.cache_stats s in
        Alcotest.(check int) "hit" 1 st.Plan_cache.hits);
    case "rebinding parameters keeps the cache warm" (fun () ->
        let s = Session.create ~config:(config_with [ ("v", vint 1) ]) Graph.empty in
        ignore (run_ok s "CREATE (:A {v: $v})");
        Session.set_config s (config_with [ ("v", vint 2) ]);
        ignore (run_ok s "CREATE (:A {v: $v})");
        let st = Session.cache_stats s in
        Alcotest.(check int) "hit despite rebinding" 1 st.Plan_cache.hits;
        let t = run_ok s "MATCH (a:A) RETURN a.v AS v ORDER BY v" in
        Alcotest.(check (list string))
          "both values applied" [ "1"; "2" ]
          (List.map Value.to_string (column t.Api.r_table "v")));
    case "changing a planning-relevant config field invalidates" (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:A)");
        Session.set_config s
          (Config.with_match_mode Config.Homomorphic (Session.config s));
        ignore (run_ok s "CREATE (:A)");
        let st = Session.cache_stats s in
        Alcotest.(check int) "no hit across the fingerprint change" 0
          st.Plan_cache.hits;
        Alcotest.(check int) "invalidated once" 1 st.Plan_cache.invalidations);
    case "the configured capacity bounds the cache (LRU order)" (fun () ->
        let config = Config.with_plan_cache_capacity 2 Config.revised in
        let s = Session.create ~config Graph.empty in
        ignore (run_ok s "CREATE (:A)");
        ignore (run_ok s "CREATE (:B)");
        ignore (run_ok s "CREATE (:A)");
        (* :A is now the most recent; compiling a third statement evicts
           the :B entry *)
        ignore (run_ok s "CREATE (:C)");
        ignore (run_ok s "CREATE (:A)");
        ignore (run_ok s "CREATE (:B)");
        let st = Session.cache_stats s in
        (* hits: 2nd :A, 3rd :A; misses: first :A, :B, :C, re-run :B *)
        Alcotest.(check int) "hits" 2 st.Plan_cache.hits;
        Alcotest.(check int) "misses" 4 st.Plan_cache.misses;
        Alcotest.(check int) "evictions" 2 st.Plan_cache.evictions);
    case "EXPLAIN reports plan cache status" (fun () ->
        let s = Session.create Graph.empty in
        let r1 = run_ok s "EXPLAIN MATCH (n) RETURN n" in
        let r2 = run_ok s "EXPLAIN MATCH (n) RETURN n" in
        let plan r =
          match r.Api.r_plan with Some p -> p | None -> Alcotest.fail "no plan"
        in
        check_contains "first is a miss" "plan cache: miss" (plan r1);
        check_contains "second is a hit" "plan cache: hit" (plan r2));
    case "index registration invalidates: no stale plan is served"
      (fun () ->
        let s =
          Session.create
            ~config:(config_with [ ("uid", vint 17) ])
            (run_graph Graph.empty
               "UNWIND range(1, 50) AS i CREATE (:User {id: i})")
        in
        let src = "EXPLAIN MATCH (u:User {id: $uid}) RETURN u" in
        let plan r =
          match r.Api.r_plan with Some p -> p | None -> Alcotest.fail "no plan"
        in
        let before = plan (run_ok s src) in
        check_contains "label scan before" "label index :User" before;
        Alcotest.(check bool) "no prop index yet" false
          (contains ~sub:"prop index" before);
        check_contains "cached" "plan cache: hit" (plan (run_ok s src));
        Session.register_prop_index s ~label:"User" ~key:"id";
        let after = plan (run_ok s src) in
        (* the invalidation forced a recompile (miss) AND the fresh plan
           uses the index — the cached pre-index plan is gone *)
        check_contains "recompiled" "plan cache: miss" after;
        check_contains "index plan" "prop index :User(id)" after;
        Alcotest.(check int) "invalidation counted" 1
          (Session.cache_stats s).Plan_cache.invalidations);
  ]

(* ------------------------------------------------------------------ *)
(* WAL round-trip and crash replay of parameterized statements        *)
(* ------------------------------------------------------------------ *)

let wal_record ?(params = Smap.empty) src =
  {
    Session.je_src = src;
    je_stats = Cypher_core.Stats.empty;
    je_config = Config.with_params params Config.revised;
    je_kind = `Statement;
  }

let wal_tests =
  [
    case "journal frames carry parameter bindings byte-exactly" (fun () ->
        let params =
          params_of
            [
              ("s", vstr "a b\nc%d\r");
              ("n", vint (-3));
              ("f", Value.Float 2.5);
              ("b", vbool true);
              ("z", vnull);
              ("l", vlist [ vint 1; vstr "x" ]);
              ("m", Value.Map (params_of [ ("k", vint 9) ]));
              ("min", vint min_int);
              ("nan", Value.Float Float.nan);
              ("inf", Value.Float Float.infinity);
              ("tiny", Value.Float 5e-324);
              ("ctl", vstr "\001'\\\t");
              ("odd key`", vlist [ Value.Map (params_of [ ("x y", vnull) ]) ]);
            ]
        in
        let r = wal_record ~params "CREATE (:N {v: $n})" in
        let records, _, torn = Wal.scan_string (Wal.encode r) in
        Alcotest.(check bool) "clean" true (torn = None);
        match records with
        | [ r' ] ->
            Alcotest.(check string) "src" r.Session.je_src r'.Session.je_src;
            Alcotest.(check bool) "params survive" true
              (Smap.equal Value.equal_strict params r'.Session.je_config.Config.params)
        | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
    case "a frame whose bindings do not read back is refused" (fun () ->
        List.iter
          (fun p ->
            let payload =
              "m=atomic o=fwd x=iso s=0,0,0,0,0,0,0,0,0,0,0 p=" ^ p ^ "\nRETURN 1"
            in
            let frame =
              Printf.sprintf "%%%d %s\n%s\n" (String.length payload)
                (Cypher_storage.Crc32.to_hex (Cypher_storage.Crc32.digest payload))
                payload
            in
            match Wal.scan_string frame with
            | [], 0, Some t ->
                Alcotest.(check string) "reason" "malformed record metadata"
                  t.Wal.t_reason
            | rs, _, _ ->
                Alcotest.failf "p=%s: %d record(s) kept" p (List.length rs))
          [ "{k:%201,%20k:%202}"; "{k:%20$v}"; "[1]"; "{k:%201}%20x"; "{k:%20'" ]);
    case "empty bindings keep the pre-parameter byte format" (fun () ->
        let framed = Wal.encode (wal_record "CREATE (:N)") in
        Alcotest.(check bool) "no p= field" false (contains ~sub:" p=" framed);
        let records, _, torn = Wal.scan_string framed in
        Alcotest.(check bool) "decodes" true
          (torn = None && List.length records = 1));
    case "crash replay re-executes with the recorded bindings" (fun () ->
        let buf = Buffer.create 256 in
        let s = Session.create ~config:(config_with [ ("v", vint 1) ]) Graph.empty in
        Session.set_journal s
          (Some
             (List.iter (fun e ->
                  Buffer.add_string buf (Wal.encode e))));
        ignore (run_ok s "CREATE (:N {v: $v})");
        Session.set_config s (config_with [ ("v", vint 2) ]);
        ignore (run_ok s "CREATE (:N {v: $v})");
        let live = Session.graph s in
        (* simulate a crash mid-append: a torn half-record at the tail *)
        let wal = Buffer.contents buf ^ "%37 deadbeef\nm=atomic o=f" in
        match Recovery.recover_strings ~wal () with
        | Error e -> Alcotest.failf "recovery failed: %s" e
        | Ok r ->
            Alcotest.(check bool) "tear detected" true (r.Recovery.torn <> None);
            Alcotest.(check int) "both statements replayed" 2 r.Recovery.replayed;
            Alcotest.check graph_iso_testable "recovered = live" live
              r.Recovery.graph;
            (* the replay really used the per-record bindings: both
               distinct values are present *)
            let t =
              run_table r.Recovery.graph "MATCH (n:N) RETURN n.v AS v ORDER BY v"
            in
            Alcotest.(check (list string))
              "param values" [ "1"; "2" ]
              (List.map Value.to_string (column t "v")));
  ]

let suite =
  binding_tests @ unbound_tests @ prepared_tests @ lru_tests @ cache_tests
  @ wal_tests
