(** Sessions and transactions; Cypher dump round-trips. *)

open Cypher_graph
open Test_util
module Session = Cypher_core.Session
module Config = Cypher_core.Config
module Api = Cypher_core.Api
module Errors = Cypher_core.Errors

let run_ok s src =
  match Session.run s src with
  | Ok t -> t
  | Error e -> Alcotest.failf "session run failed: %s" (Errors.to_string e)

let session_tests =
  [
    case "statements advance the session graph" (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:A)");
        ignore (run_ok s "CREATE (:B)");
        Alcotest.(check int) "two" 2 (Graph.node_count (Session.graph s)));
    case "failing statements leave the graph untouched" (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:A)-[:T]->(:B)");
        (match Session.run s "MATCH (a:A) DELETE a" with
        | Error (Errors.Delete_dangling _) -> ()
        | _ -> Alcotest.fail "expected delete to fail");
        Alcotest.(check int) "unchanged" 2 (Graph.node_count (Session.graph s));
        Alcotest.(check bool) "wellformed" true
          (Graph.is_wellformed (Session.graph s)));
    case "rollback restores the snapshot" (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:Keep)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Discard), (:Discard)");
        Alcotest.(check int) "inside tx" 3 (Graph.node_count (Session.graph s));
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "after rollback" 1
          (Graph.node_count (Session.graph s)));
    case "commit keeps the changes" (fun () ->
        let s = Session.create Graph.empty in
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:N)");
        (match Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "kept" 1 (Graph.node_count (Session.graph s));
        Alcotest.(check bool) "tx closed" false (Session.in_transaction s));
    case "transactions nest" (fun () ->
        let s = Session.create Graph.empty in
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Outer)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Inner)");
        Alcotest.(check int) "depth" 2 (Session.depth s);
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "inner undone" 1 (Graph.node_count (Session.graph s));
        (match Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "outer kept" 1 (Graph.node_count (Session.graph s)));
    case "commit or rollback without a transaction is an error" (fun () ->
        let s = Session.create Graph.empty in
        Alcotest.(check bool) "commit" true (Session.commit s = Error "no transaction in progress");
        Alcotest.(check bool) "rollback" true
          (Session.rollback s = Error "no transaction in progress"));
    case "reset drops graph and transactions" (fun () ->
        let s = Session.create Graph.empty in
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:N)");
        Session.reset s;
        Alcotest.(check int) "empty" 0 (Graph.node_count (Session.graph s));
        Alcotest.(check bool) "no tx" false (Session.in_transaction s));
    case "three-deep nesting unwinds level by level" (fun () ->
        let s = Session.create Graph.empty in
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:L1)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:L2)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:L3)");
        Alcotest.(check int) "depth 3" 3 (Session.depth s);
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "depth 2" 2 (Session.depth s);
        Alcotest.(check int) "L3 undone" 2 (Graph.node_count (Session.graph s));
        (match Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "depth 1" 1 (Session.depth s);
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "all undone" 0
          (Graph.node_count (Session.graph s));
        Alcotest.(check int) "depth 0" 0 (Session.depth s));
    case "rollback after a failed statement restores the snapshot" (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:Keep)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Mid)");
        (match Session.run s "MATCH (k:Keep) CREATE (k)-[:T]->(:X) DELETE k" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected statement to fail");
        (* the failed statement itself changed nothing (statement-level
           atomicity); rollback must still undo the rest of the tx *)
        Alcotest.(check int) "mid kept until rollback" 2
          (Graph.node_count (Session.graph s));
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "back to snapshot" 1
          (Graph.node_count (Session.graph s));
        Alcotest.(check bool) "wellformed" true
          (Graph.is_wellformed (Session.graph s)));
    case "run surfaces update counters" (fun () ->
        let s = Session.create Graph.empty in
        let r = run_ok s "CREATE (:A {x: 1})-[:T]->(:B)" in
        let st = r.Api.r_stats in
        Alcotest.(check int) "nodes" 2 st.Cypher_core.Stats.nodes_created;
        Alcotest.(check int) "rels" 1 st.Cypher_core.Stats.rels_created;
        Alcotest.(check int) "props" 1 st.Cypher_core.Stats.props_set;
        Alcotest.(check int) "labels" 2 st.Cypher_core.Stats.labels_added;
        let r2 = run_ok s "MATCH (n) RETURN n" in
        Alcotest.(check bool) "read-only has no updates" false
          (Cypher_core.Stats.contains_updates r2.Api.r_stats));
    case "run recognises EXPLAIN and PROFILE prefixes" (fun () ->
        let s = Session.create Graph.empty in
        ignore (run_ok s "CREATE (:A)");
        let r = run_ok s "EXPLAIN CREATE (:B)" in
        Alcotest.(check bool) "plan rendered" true (r.Api.r_plan <> None);
        Alcotest.(check int) "explain does not execute" 1
          (Graph.node_count (Session.graph s));
        let r = run_ok s "PROFILE CREATE (:B)" in
        Alcotest.(check bool) "profile present" true (r.Api.r_profile <> None);
        Alcotest.(check int) "profile executes" 2
          (Graph.node_count (Session.graph s)));
    case "with_stats returns the config itself when it already collects so" (fun () ->
        (* a journaled session forces counters on through [with_stats]; a
           new record would miss the plan cache's [config == s.config]
           fast path on every statement *)
        Alcotest.(check bool) "collecting" true (Config.with_stats true Config.revised == Config.revised);
        let off = Config.with_stats false Config.revised in
        Alcotest.(check bool) "not collecting" true (Config.with_stats false off == off);
        Alcotest.(check bool) "a toggle is a new config" false off.Config.collect_stats);
  ]

(* ------------------------------------------------------------------ *)
(* Dump round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let reload g =
  let script = Dump.to_cypher g in
  if script = "" then Graph.empty
  else
    match Api.run_program ~config:Cypher_core.Config.revised Graph.empty script with
    | Ok (g', _) -> g'
    | Error e -> Alcotest.failf "dump did not reload: %s\n%s" (Errors.to_string e) script

let dump_tests =
  [
    case "empty graph dumps to the empty script" (fun () ->
        Alcotest.(check string) "empty" "" (Dump.to_cypher Graph.empty));
    case "dump round-trips a small graph" (fun () ->
        let g =
          graph_of
            "CREATE (a:User {id: 1, name: 'it\\'s'})-[:KNOWS {since: 1999}]->\n\
             (b:User:Admin {id: 2}), (c {weird: [1, 'x', true]}), (a)-[:T]->(a)"
        in
        Alcotest.check graph_iso_testable "isomorphic" g (reload g));
    case "dump quotes non-plain identifiers" (fun () ->
        let _, g =
          Graph.create_node ~labels:[ "Oddly Labeled" ]
            ~props:(Props.of_list [ ("strange key", vint 1) ])
            Graph.empty
        in
        Alcotest.check graph_iso_testable "isomorphic" g (reload g));
    case "dump round-trips the paper fixtures" (fun () ->
        List.iter
          (fun g -> Alcotest.check graph_iso_testable "isomorphic" g (reload g))
          [
            Cypher_paper.Fixtures.figure1_graph;
            Cypher_paper.Fixtures.figure7a;
            Cypher_paper.Fixtures.figure8b;
            Cypher_paper.Fixtures.figure9a;
          ]);
  ]

(* random graph generator for the round-trip property *)
let gen_graph =
  QCheck.Gen.(
    let gen_label = oneofl [ "A"; "B"; "C" ] in
    let gen_value =
      oneof
        [
          map (fun i -> Value.Int i) small_signed_int;
          map (fun s -> Value.String s) (oneofl [ "x"; "it's"; "a,b" ]);
          return (Value.Bool true);
          return (Value.Float 1.5);
        ]
    in
    let gen_node =
      pair (list_size (int_bound 2) gen_label)
        (list_size (int_bound 2) (pair (oneofl [ "k"; "v"; "w" ]) gen_value))
    in
    map2
      (fun nodes raw_rels ->
        let n = List.length nodes in
        let rels =
          List.map (fun (a, ty, b) -> (a mod n, ty, b mod n)) raw_rels
        in
        Cypher_paper.Fixtures.build nodes rels)
      (list_size (int_range 1 6) gen_node)
      (list_size (int_bound 8)
         (triple (int_bound 5) (oneofl [ "T"; "U" ]) (int_bound 5))))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dump round-trip is isomorphic" ~count:100
         (QCheck.make ~print:Graph.to_string gen_graph)
         (fun g -> Iso.isomorphic g (reload g)));
  ]

let suite = session_tests @ dump_tests @ qcheck_tests
