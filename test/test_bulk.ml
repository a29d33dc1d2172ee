(** The bulk loader: CSV validation (structured errors with file and
    line, never a partial graph), one [`Bulk] journal frame per load,
    the closed-store failure mode, loads inside a caller's transaction,
    durability of a bulk load through crash recovery, and the replay of
    journals that hold several frames per load. *)

open Cypher_graph
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors
module Session = Cypher_core.Session
module Store = Cypher_storage.Store
module Bulk = Cypher_storage.Bulk
module Wal = Cypher_storage.Wal

let tmpdir () =
  let path = Filename.temp_file "cypher_bulk" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let nodes_csv =
  "id,labels,name,age\n\
   u1,User,ada,36\n\
   u2,User;Admin,bob,\n\
   p1,Product,widget,2\n"

let rels_csv =
  "src,tgt,type,since\nu1,u2,KNOWS,2001\nu1,p1,ORDERED,\nu2,p1,ORDERED,2020\n"

let fresh_session () = Session.create ~config:Config.revised Graph.empty

let load session ~nodes ~rels = Bulk.load_strings session ~nodes ~rels

(* a session on [base] whose journal sink appends to the returned log *)
let logging_session base =
  let log = ref [] in
  let s = Session.create ~config:Config.revised base in
  Session.set_journal s (Some (fun entries -> log := !log @ entries));
  (s, log)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_error ~sub result =
  match result with
  | Ok (_ : Bulk.report) -> Alcotest.failf "load succeeded, expected %S" sub
  | Error e ->
      let msg = Errors.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "%S appears in %S" sub msg)
        true (contains ~sub msg)

let validation_tests =
  [
    Test_util.case "happy path: graph, report and batching" (fun () ->
        let s, log = logging_session Graph.empty in
        match load s ~nodes:nodes_csv ~rels:rels_csv with
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e)
        | Ok r ->
            Alcotest.(check int) "nodes" 3 r.Bulk.nodes_created;
            Alcotest.(check int) "rels" 3 r.Bulk.rels_created;
            (* the whole load is one [`Bulk] entry carrying its counters *)
            (match !log with
            | [ { Session.je_kind = `Bulk; je_stats; _ } ] ->
                Alcotest.(check (pair int int)) "entry counters" (3, 3)
                  (je_stats.Cypher_core.Stats.nodes_created, je_stats.Cypher_core.Stats.rels_created)
            | entries -> Alcotest.failf "expected one bulk entry, got %d entries" (List.length entries));
            let g = Session.graph s in
            Alcotest.(check int) "node count" 3 (Graph.node_count g);
            Alcotest.(check int) "rel count" 3 (Graph.rel_count g);
            (* typed properties and multi-labels made it through *)
            match
              Session.run s
                "MATCH (a:Admin:User {name: 'bob'})<-[k:KNOWS {since: \
                 2001}]-(u) RETURN u.name AS n, u.age AS age"
            with
            | Error e -> Alcotest.failf "query: %s" (Errors.to_string e)
            | Ok res ->
                Alcotest.(check int) "one row" 1
                  (Cypher_table.Table.row_count res.Cypher_core.Api.r_table));
    Test_util.case "CRLF and quoted fields load" (fun () ->
        let s = fresh_session () in
        let nodes = "id,name\r\nu1,\"a,b\"\r\nu2,line\r\n" in
        let rels = "src,tgt,type\r\nu1,u2,R\r\n" in
        match load s ~nodes ~rels with
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e)
        | Ok r ->
            Alcotest.(check int) "nodes" 2 r.Bulk.nodes_created;
            Alcotest.(check int) "rels" 1 r.Bulk.rels_created);
    Test_util.case "empty nodes file is a structured error" (fun () ->
        let s = fresh_session () in
        check_error ~sub:"bulk load (<nodes>): empty file"
          (load s ~nodes:"" ~rels:rels_csv));
    Test_util.case "missing required column names the header" (fun () ->
        let s = fresh_session () in
        check_error ~sub:"missing required column \"id\""
          (load s ~nodes:"name\nada\n" ~rels:rels_csv));
    Test_util.case "duplicate node id reports both lines" (fun () ->
        let s = fresh_session () in
        check_error
          ~sub:"(<nodes>:3): duplicate node id \"u1\" (first seen at line 2)"
          (load s ~nodes:"id\nu1\nu1\n" ~rels:"src,tgt,type\n"));
    Test_util.case "row wider than the header carries its line" (fun () ->
        let s = fresh_session () in
        check_error ~sub:"(<nodes>:3): row has 3 fields, header has 2"
          (load s ~nodes:"id,name\nu1,a\nu2,b,EXTRA\n" ~rels:"src,tgt,type\n"));
    Test_util.case "a last empty quoted id is a row, line ending or not" (fun () ->
        List.iter
          (fun nodes ->
            check_error ~sub:"bulk load (<nodes>:3): empty node id"
              (load (fresh_session ()) ~nodes ~rels:"src,tgt,type\n"))
          [ "id\na\n\"\""; "id\na\n\"\"\n" ]);
    Test_util.case "the first fault in file order is reported" (fun () ->
        (* the duplicate on line 3 comes before the unterminated quote
           on line 4 *)
        check_error ~sub:"bulk load (<nodes>:3): duplicate node id \"u1\" (first seen at line 2)"
          (load (fresh_session ()) ~nodes:"id\nu1\nu1\n\"oops\n" ~rels:"src,tgt,type\n"));
    Test_util.case "unknown endpoint carries its line" (fun () ->
        let s = fresh_session () in
        check_error ~sub:"(<rels>:3): unknown target node id \"ghost\""
          (load s ~nodes:"id\nu1\nu2\n"
             ~rels:"src,tgt,type\nu1,u2,R\nu1,ghost,R\n"));
    Test_util.case "a failed load leaves no partial graph" (fun () ->
        let s = fresh_session () in
        (match load s ~nodes:"id\nu1\nu2\n"
                 ~rels:"src,tgt,type\nu1,u2,R\nu1,ghost,R\n"
         with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error _ -> ());
        Alcotest.(check int) "no nodes" 0 (Graph.node_count (Session.graph s));
        Alcotest.(check bool) "session usable, not mid-transaction" false
          (Session.in_transaction s));
  ]

(* ------------------------------------------------------------------ *)
(* The closed store and durability                                    *)
(* ------------------------------------------------------------------ *)

let storage_tests =
  [
    Test_util.case "statement after close fails structured, graph frozen"
      (fun () ->
        with_tmpdir (fun dir ->
            match Store.open_db (Filename.concat dir "db") with
            | Error e -> Alcotest.fail e
            | Ok (store, session) -> (
                (match Session.run session "CREATE (:Live)" with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "%s" (Errors.to_string e));
                Store.close store;
                match Session.run session "CREATE (:Ghost)" with
                | Ok _ -> Alcotest.fail "update succeeded on a closed store"
                | Error e ->
                    (* a structured update error, not a bare Failure *)
                    (match e with
                    | Errors.Update_error msg ->
                        Alcotest.(check bool) "message names the store" true
                          (contains ~sub:"is closed" msg)
                    | e ->
                        Alcotest.failf "expected Update_error, got %s"
                          (Errors.to_string e));
                    (* write-ahead: the failed statement did not advance
                       the in-memory graph *)
                    Alcotest.(check int) "graph unchanged" 1
                      (Graph.node_count (Session.graph session)))));
    Test_util.case "bulk load on a closed store rolls back" (fun () ->
        with_tmpdir (fun dir ->
            match Store.open_db (Filename.concat dir "db") with
            | Error e -> Alcotest.fail e
            | Ok (store, session) ->
                Store.close store;
                (match load session ~nodes:"id\nu1\n" ~rels:"src,tgt,type\n" with
                | Ok _ -> Alcotest.fail "load succeeded on a closed store"
                | Error (Errors.Update_error m) ->
                    Alcotest.(check string) "message"
                      (Printf.sprintf
                         "bulk load: update error: store at %s is closed: reopen it or detach the \
                          journal (Session.set_journal session None) to continue in memory"
                         (Filename.concat dir "db"))
                      m
                | Error e -> Alcotest.failf "expected Update_error, got %s" (Errors.to_string e));
                Alcotest.(check int) "graph unchanged" 0
                  (Graph.node_count (Session.graph session))));
    Test_util.case "bulk load survives close/reopen (journal replay)"
      (fun () ->
        with_tmpdir (fun dir ->
            let db = Filename.concat dir "db" in
            let before =
              match Store.open_db db with
              | Error e -> Alcotest.fail e
              | Ok (store, session) ->
                  (match Session.run session "CREATE (:Seed {id: 0})" with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "%s" (Errors.to_string e));
                  (match load session ~nodes:nodes_csv ~rels:rels_csv with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
                  (* and a statement on top of the bulk data *)
                  (match
                     Session.run session
                       "MATCH (u:User {name: 'ada'}) SET u.seen = true"
                   with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "%s" (Errors.to_string e));
                  let g = Graph.to_string (Session.graph session) in
                  Store.close store;
                  g
            in
            match Store.open_db db with
            | Error e -> Alcotest.fail e
            | Ok (store, session) ->
                let after = Graph.to_string (Session.graph session) in
                Store.close store;
                Alcotest.(check string) "recovered graph" before after));
    Test_util.case "bulk frames replay after a snapshot id remap" (fun () ->
        with_tmpdir (fun dir ->
            let db = Filename.concat dir "db" in
            let before =
              match Store.open_db db with
              | Error e -> Alcotest.fail e
              | Ok (store, session) ->
                  (* create a gap in the id sequence, then snapshot: the
                     reloaded base has remapped ids, so a frame pinning
                     internal ids would rebind — raw-id resolution must
                     not care *)
                  (match Session.run session "CREATE (:A), (:B), (:C)" with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "%s" (Errors.to_string e));
                  (match Session.run session "MATCH (b:B) DELETE b" with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "%s" (Errors.to_string e));
                  (match Store.compact store session with
                  | Ok () -> ()
                  | Error e -> Alcotest.fail e);
                  (match load session ~nodes:"id\nx\ny\n"
                           ~rels:"src,tgt,type\nx,y,R\n"
                   with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
                  let g = Session.graph session in
                  Store.close store;
                  g
            in
            match Store.open_db db with
            | Error e -> Alcotest.fail e
            | Ok (store, session) ->
                let after = Session.graph session in
                Store.close store;
                (* recovery replays on a snapshot whose ids are a
                   monotone remap of the originals, so compare up to
                   isomorphism, like the snapshot round-trip tests *)
                Alcotest.check Test_util.graph_iso_testable "recovered graph"
                  before after));
  ]

(* ------------------------------------------------------------------ *)
(* Frame round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let frame_tests =
  [
    Test_util.case "frames pct-encode awkward field values" (fun () ->
        let s = fresh_session () in
        let nodes = "id,note\n\"a b\",\"x% y\"\n\"c d\",plain\n" in
        let rels = "src,tgt,type\n\"a b\",\"c d\",\"HAS SPACE\"\n" in
        (match load s ~nodes ~rels with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
        match
          Session.run s "MATCH (a {note: 'x% y'})-[r]->(b) RETURN type(r) AS t"
        with
        | Error e -> Alcotest.failf "query: %s" (Errors.to_string e)
        | Ok res -> (
            match Cypher_table.Table.rows res.Cypher_core.Api.r_table with
            | [ row ] ->
                Alcotest.(check bool) "type round-trips" true
                  (Value.equal_strict
                     (Cypher_table.Record.find row "t")
                     (Value.String "HAS SPACE"))
            | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)));
    Test_util.case "frame property fields carry every storable value" (fun () ->
        let props =
          Props.of_list
            [
              ("nan", Value.Float Float.nan);
              ("min", Value.Int min_int);
              ("inf", Value.Float Float.neg_infinity);
              ("s", Value.String "x% y\n'\\\001");
              ("odd key`", Value.List [ Value.Float (-0.0); Value.Float 0.1 ]);
            ]
        in
        let ids = Bulk.create_idmap () in
        let frame = "N a%20b L " ^ Wal.encode_params (Props.to_map props) in
        match Bulk.apply_frame ~ids Graph.empty frame with
        | Error m -> Alcotest.failf "frame did not apply: %s" m
        | Ok (g, _) -> (
            match Graph.nodes g with
            | [ n ] ->
                Alcotest.(check bool) "props survive" true
                  (Props.equal props n.Graph.n_props)
            | ns -> Alcotest.failf "expected 1 node, got %d" (List.length ns)));
    Test_util.case "apply_frame rejects garbage" (fun () ->
        let ids = Bulk.create_idmap () in
        (match Bulk.apply_frame ~ids Graph.empty "X what" with
        | Ok _ -> Alcotest.fail "accepted a malformed line"
        | Error _ -> ());
        (match Bulk.apply_frame ~ids Graph.empty "R a b T -" with
        | Ok _ -> Alcotest.fail "accepted an unresolved endpoint"
        | Error _ -> ());
        List.iter
          (fun props ->
            match Bulk.apply_frame ~ids Graph.empty ("N a - " ^ props) with
            | Ok _ -> Alcotest.failf "accepted the property field %S" props
            | Error _ -> ())
          [
            "{k:%201,%20k:%202}" (* duplicate key *);
            "{k:%20'x}" (* unterminated string *);
            "{k:%201}x" (* trailing bytes *);
            "[1]" (* not a map *);
            "{k:%20'%5cq'}" (* bad escape *);
            "{k:%201" (* unterminated map *);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* A load builds what creating one entity at a time builds            *)
(* ------------------------------------------------------------------ *)

let csv_field = function
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.1f" f
  | Value.String s -> s
  | _ -> ""

let csv_props props = List.map (fun k -> csv_field (Props.get props k)) [ "k"; "w" ]

(* seed [seed]'s random entity script and its two CSV images *)
let random_load seed =
  let rng = Random.State.make [| seed |] in
  let steps =
    Test_util.random_steps rng ~nodes:[||] ~next_id:0 ~count:(1 + Random.State.int rng 60)
  in
  let row fields = String.concat "," fields ^ "\n" in
  let nodes = Buffer.create 256 and rels = Buffer.create 256 in
  Buffer.add_string nodes (row [ "id"; "labels"; "k"; "w" ]);
  Buffer.add_string rels (row [ "src"; "tgt"; "type"; "k"; "w" ]);
  List.iteri
    (fun i -> function
      | Test_util.Step_node (labels, props) ->
          Buffer.add_string nodes
            (row ((Printf.sprintf "v%d" i :: [ String.concat ";" labels ]) @ csv_props props))
      | Test_util.Step_rel (src, tgt, ty, props) ->
          Buffer.add_string rels
            (row ([ Printf.sprintf "v%d" src; Printf.sprintf "v%d" tgt; ty ] @ csv_props props)))
    steps;
  (steps, Buffer.contents nodes, Buffer.contents rels)

let equivalence_tests =
  [
    Test_util.case "a batched load equals the per-entity create sequence" (fun () ->
        for seed = 1 to 30 do
          let steps, nodes, rels = random_load seed in
          (* the reference: nodes in file order, then relationships *)
          let base = Test_util.indexed_base () in
          let ids = Hashtbl.create 16 in
          let expected =
            List.fold_left
              (fun g (i, step) ->
                match step with
                | Test_util.Step_node (labels, props) ->
                    let id, g = Graph.create_node ~labels ~props g in
                    Hashtbl.add ids i id;
                    g
                | Test_util.Step_rel _ -> g)
              base
              (List.mapi (fun i s -> (i, s)) steps)
          in
          let expected =
            List.fold_left
              (fun g -> function
                | Test_util.Step_rel (src, tgt, r_type, props) ->
                    snd
                      (Graph.create_rel ~src:(Hashtbl.find ids src) ~tgt:(Hashtbl.find ids tgt)
                         ~r_type ~props g)
                | Test_util.Step_node _ -> g)
              expected steps
          in
          let s = Session.create ~config:Config.revised base in
          (match load s ~nodes ~rels with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "seed %d: load: %s" seed (Errors.to_string e));
          Test_util.check_same_graph (Printf.sprintf "seed %d" seed) expected (Session.graph s)
        done);
    Test_util.case "a frame interleaving nodes and relationships applies in line order"
      (fun () ->
        let base = Test_util.indexed_base () in
        let frame = "N a A;B {k:%201}\nR a a R {w:%200.5}\nN b A -\nR b a S -\nR a b S -\nR a b S -" in
        let ids = Bulk.create_idmap () in
        match Bulk.apply_frame ~ids base frame with
        | Error m -> Alcotest.failf "frame: %s" m
        | Ok (g, stats) ->
            let k1 = Props.of_list [ ("k", Value.Int 1) ] in
            let a, e = Graph.create_node ~labels:[ "A"; "B" ] ~props:k1 base in
            let _, e = Graph.create_rel ~src:a ~tgt:a ~r_type:"R" ~props:(Props.of_list [ ("w", Value.Float 0.5) ]) e in
            let b, e = Graph.create_node ~labels:[ "A" ] e in
            let _, e = Graph.create_rel ~src:b ~tgt:a ~r_type:"S" e in
            let _, e = Graph.create_rel ~src:a ~tgt:b ~r_type:"S" e in
            let _, e = Graph.create_rel ~src:a ~tgt:b ~r_type:"S" e in
            Test_util.check_same_graph "frame" e g;
            Alcotest.(check (pair int int)) "counters" (2, 4)
              (stats.Cypher_core.Stats.nodes_created, stats.Cypher_core.Stats.rels_created));
  ]

(* ------------------------------------------------------------------ *)
(* A load stores what repeats once                                    *)
(* ------------------------------------------------------------------ *)

(* persons, posts and tags in the columns the wire benchmark loads,
   with its value ranges: few labels, cities and ages, many entities *)
let bench_shaped_csv ~persons =
  let nodes = Buffer.create 4096 and rels = Buffer.create 4096 in
  Buffer.add_string nodes "id,labels,pid,name,age,city,balance,postid,by,len,tid\n";
  for i = 0 to persons - 1 do
    Printf.bprintf nodes "p%d,Person,%d,name%d,%d,city%d,%d,,,,\n" i i i (18 + (i * 7 mod 62))
      (i mod 5) (i * 37 mod 1000)
  done;
  for j = 0 to (2 * persons) - 1 do
    Printf.bprintf nodes "q%d,Post,,,,,,%d,%d,%d,\n" j j (j mod persons) (1 + (j * 13 mod 10))
  done;
  for k = 0 to 3 do
    Printf.bprintf nodes "t%d,Tag,,tag%d,,,,,,,%d\n" k k k
  done;
  Buffer.add_string rels "src,tgt,type\n";
  for i = 0 to persons - 1 do
    List.iter
      (fun d -> Printf.bprintf rels "p%d,p%d,KNOWS\n" i ((i + d) mod persons))
      [ 1; 3; 7 ]
  done;
  for j = 0 to (2 * persons) - 1 do
    Printf.bprintf rels "p%d,q%d,CREATED\n" (j mod persons) j
  done;
  (Buffer.contents nodes, Buffer.contents rels)

let sharing_tests =
  let prop (n : Graph.node) k = Props.get n.Graph.n_props k in
  [
    Test_util.case "loaded entities share equal label sets and scalars" (fun () ->
        let nodes, rels = bench_shaped_csv ~persons:40 in
        let s = fresh_session () in
        (match load s ~nodes ~rels with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
        let g = Session.graph s in
        let persons = List.filter (fun n -> Graph.has_label g n.Graph.n_id "Person") (Graph.nodes g) in
        let first_with k v = List.find (fun n -> Value.equal_strict (prop n k) v) persons in
        List.iter
          (fun (n : Graph.node) ->
            let same = first_with "city" (prop n "city") in
            Alcotest.(check bool) "key array" true
              (Props.shares_keys n.Graph.n_props (List.hd persons).Graph.n_props);
            Alcotest.(check bool) "label set" true (n.Graph.labels == same.Graph.labels);
            Alcotest.(check bool) "city" true (prop n "city" == prop same "city");
            let same = first_with "age" (prop n "age") in
            Alcotest.(check bool) "age" true (prop n "age" == prop same "age"))
          persons;
        let types = List.map (fun (r : Graph.rel) -> r.Graph.r_type) (Graph.rels g) in
        let knows = List.filter (fun t -> t = "KNOWS") types in
        Alcotest.(check bool) "types" true (List.for_all (fun t -> t == List.hd knows) knows));
    Test_util.case "frame floats keep their bits; bools and ints are shared" (fun () ->
        let props f = Props.of_list [ ("f", Value.Float f); ("b", Value.Bool true); ("i", Value.Int 7) ] in
        let line id f = Printf.sprintf "N %s L %s" id (Wal.encode_params (Props.to_map (props f))) in
        let frame = String.concat "\n" [ line "a" 0.0; line "b" (-0.0); line "c" Float.nan ] in
        match Bulk.apply_frame ~ids:(Bulk.create_idmap ()) Graph.empty frame with
        | Error m -> Alcotest.failf "frame: %s" m
        | Ok (g, _) -> (
            match Graph.nodes g with
            | [ a; b; c ] ->
                let bits n =
                  match prop n "f" with
                  | Value.Float f -> Int64.bits_of_float f
                  | _ -> Alcotest.fail "not a float"
                in
                Alcotest.(check int64) "0.0" (Int64.bits_of_float 0.0) (bits a);
                Alcotest.(check int64) "-0.0" (Int64.bits_of_float (-0.0)) (bits b);
                Alcotest.(check bool) "nan" true (Float.is_nan (Int64.float_of_bits (bits c)));
                Alcotest.(check bool) "int" true (prop a "i" == prop c "i");
                Alcotest.(check bool) "bool" true (prop a "b" == prop b "b");
                Alcotest.(check bool) "labels" true (a.Graph.labels == c.Graph.labels)
            | ns -> Alcotest.failf "expected 3 nodes, got %d" (List.length ns)));
    Test_util.case "a SET on one of two nodes sharing a value leaves the other" (fun () ->
        let nodes = "id,labels,age,city\nu1,User,36,x\nu2,User,36,x\n" in
        let s = fresh_session () in
        (match load s ~nodes ~rels:"src,tgt,type\n" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
        let loaded = Session.graph s in
        let n1 = Graph.node_exn loaded 1 in
        Alcotest.(check bool) "loaded key array" true
          (Props.shares_keys (Graph.node_exn loaded 0).Graph.n_props n1.Graph.n_props);
        let g = Test_util.run_graph loaded "MATCH (u:User) WHERE id(u) = 0 SET u.age = u.age + 1, u.city = 'y', u:Admin" in
        let n i = Graph.node_exn g i in
        Alcotest.(check bool) "other map untouched" true ((n 1).Graph.n_props == n1.Graph.n_props);
        Alcotest.(check bool) "updated keeps the key array" true
          (Props.shares_keys (n 0).Graph.n_props n1.Graph.n_props);
        Test_util.check_value "updated age" (Value.Int 37) (prop (n 0) "age");
        Test_util.check_value "other age" (Value.Int 36) (prop (n 1) "age");
        Test_util.check_value "other city" (Value.String "x") (prop (n 1) "city");
        Alcotest.(check (list string)) "other labels" [ "User" ] (Graph.labels_of g 1));
    Test_util.case "a bench-shaped image re-images to the same bytes" (fun () ->
        let nodes, rels = bench_shaped_csv ~persons:60 in
        let s = fresh_session () in
        (match load s ~nodes ~rels with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
        Session.register_prop_index s ~label:"Person" ~key:"pid";
        Session.register_prop_index s ~label:"Post" ~key:"postid";
        let img = Cypher_storage.Snapshot.to_string (Session.graph s) in
        match Cypher_storage.Snapshot.parse img with
        | Error m -> Alcotest.failf "parse: %s" m
        | Ok g ->
            Alcotest.(check string) "fixpoint" img (Cypher_storage.Snapshot.to_string g);
            Test_util.check_adjacency "decoded" g;
            let persons = List.filter (fun n -> Graph.has_label g n.Graph.n_id "Person") (Graph.nodes g) in
            Alcotest.(check bool) "decoded Persons share one key array" true
              (List.for_all
                 (fun (n : Graph.node) -> Props.shares_keys n.Graph.n_props (List.hd persons).Graph.n_props)
                 persons));
  ]

(* ------------------------------------------------------------------ *)
(* A load replays to itself                                           *)
(* ------------------------------------------------------------------ *)

(* The loader builds its records from the validated rows and never
   reads its frames back, so nothing but these cases ties what it
   builds to what recovery rebuilds from its journal. *)

(* awkward raw ids, labels, keys and values: every escape either
   encoding layer makes *)
let awkward_csv =
  ( "id,labels,note,odd key`,f,n,b\n\
     \"a b\",A;;B,\"x% y\",1,0.1,-7,true\n\
     \"c%d\",,\"multi\r\nline\",`x,-0.0,4611686018427387903,FALSE\n\
     e,\"L 1;L`2\",'q\\\\',,1e300,,null\n\
     f,Z;A;Z,caf\xc3\xa9 \xe2\x82\xac,2.5,nan,0,\n\
     g,-,-,-,-nan,-,-\n",
    "src,tgt,type,w,s\n\"a b\",\"c%d\",\"HAS SPACE\",1.5,x\na b,e,T,,\ne,f,`T`,-3,\"y z\"\nf,f,T,inf,\n" )

(* loads onto [base] with a journal sink attached: the graph and the
   captured frames *)
let load_capturing base ~nodes ~rels =
  let s, log = logging_session base in
  (match load s ~nodes ~rels with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
  (Session.graph s, !log)

(* [base] goes through a snapshot first, so the load and the replay
   start from the very graph recovery decodes *)
let check_replays_to_itself msg base ~nodes ~rels =
  let image = Cypher_storage.Snapshot.to_string base in
  let base =
    match Cypher_storage.Snapshot.parse image with Ok g -> g | Error m -> Alcotest.fail m
  in
  let loaded, entries = load_capturing base ~nodes ~rels in
  let wal = String.concat "" (List.map (fun e -> Wal.encode (Wal.record_of_entry e)) entries) in
  match Cypher_storage.Recovery.recover_strings ~snapshot:image ~wal () with
  | Error m -> Alcotest.failf "%s: recovery: %s" msg m
  | Ok r ->
      Alcotest.(check int) (msg ^ ": frames replayed") (List.length entries) r.Cypher_storage.Recovery.replayed;
      Test_util.check_same_graph msg loaded r.Cypher_storage.Recovery.graph;
      Alcotest.(check string) (msg ^ ": snapshot image")
        (Cypher_storage.Snapshot.to_string loaded)
        (Cypher_storage.Snapshot.to_string r.Cypher_storage.Recovery.graph)

let replay_tests =
  [
    Test_util.case "a load replays to itself, byte for byte" (fun () ->
        for seed = 1 to 30 do
          let _, nodes, rels = random_load seed in
          check_replays_to_itself (Printf.sprintf "seed %d" seed) (Test_util.indexed_base ()) ~nodes
            ~rels
        done;
        let nodes, rels = bench_shaped_csv ~persons:40 in
        check_replays_to_itself "bench-shaped" (Test_util.indexed_base ()) ~nodes ~rels;
        let nodes, rels = awkward_csv in
        check_replays_to_itself "awkward" (Test_util.indexed_base ()) ~nodes ~rels);
    (* the MD5s of the frames a load wrote when it journaled one frame
       per batch of rows, joined with newlines: the one frame a load
       writes now is exactly that join (at any batch size the join was
       the same) *)
    Test_util.case "frame bytes are pinned" (fun () ->
        let md5 (nodes, rels) =
          match snd (load_capturing Graph.empty ~nodes ~rels) with
          | [ e ] -> Digest.to_hex (Digest.string e.Session.je_src)
          | entries -> Alcotest.failf "expected one frame, got %d" (List.length entries)
        in
        Alcotest.(check string) "bench-shaped" "05e990e6d1f61dd878632d920aed59f9"
          (md5 (bench_shaped_csv ~persons:40));
        Alcotest.(check string) "awkward" "88c2884679d1007c3461a96b5217c335" (md5 awkward_csv));
    (* journals written when a load was one frame per batch of rows:
       [awkward_csv] at 2 rows a frame (5 frames) and
       [bench_shaped_csv ~persons:40] at 50 (7 frames), each loaded onto
       an empty graph *)
    Test_util.case "multi-frame journals replay to the one-frame load" (fun () ->
        List.iter
          (fun (file, frames, (nodes, rels)) ->
            let wal = In_channel.with_open_bin (Filename.concat "journals" file) In_channel.input_all in
            let loaded, _ = load_capturing Graph.empty ~nodes ~rels in
            match Cypher_storage.Recovery.recover_strings ~wal () with
            | Error m -> Alcotest.failf "%s: recovery: %s" file m
            | Ok r ->
                let recovered = r.Cypher_storage.Recovery.graph in
                Alcotest.(check int) (file ^ ": frames replayed") frames r.Cypher_storage.Recovery.replayed;
                Test_util.check_same_graph file loaded recovered;
                Alcotest.(check string) (file ^ ": snapshot image")
                  (Cypher_storage.Snapshot.to_string loaded)
                  (Cypher_storage.Snapshot.to_string recovered))
          [
            ("bulk_awkward_batch2.wal", 5, awkward_csv);
            ("bulk_bench_shaped_batch50.wal", 7, bench_shaped_csv ~persons:40);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* A load inside a caller's transaction                               *)
(* ------------------------------------------------------------------ *)

let transaction_tests =
  [
    Test_util.case "a load inside a transaction journals with its commit" (fun () ->
        let s, log = logging_session Graph.empty in
        let before = Session.graph s in
        Session.begin_tx s;
        (match load s ~nodes:nodes_csv ~rels:rels_csv with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
        Alcotest.(check int) "buffered, not written" 0 (List.length !log);
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "rollback journals nothing" 0 (List.length !log);
        Alcotest.(check bool) "rollback restores the graph" true (Session.graph s == before);
        Session.begin_tx s;
        (match load s ~nodes:nodes_csv ~rels:rels_csv with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
        (match Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
        match !log with
        | [ { Session.je_kind = `Bulk; _ } ] ->
            Alcotest.(check int) "committed nodes" 3 (Graph.node_count (Session.graph s))
        | entries -> Alcotest.failf "expected one bulk frame, got %d entries" (List.length entries));
  ]

(* ------------------------------------------------------------------ *)
(* Loading from files                                                 *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let file_tests =
  [
    Test_util.case "load_files: counts, error paths and a missing file" (fun () ->
        with_tmpdir (fun dir ->
            let nodes_path = Filename.concat dir "nodes.csv"
            and rels_path = Filename.concat dir "rels.csv" in
            write_file nodes_path nodes_csv;
            write_file rels_path rels_csv;
            let s = fresh_session () in
            (match
               ( Bulk.load_files s ~nodes_path ~rels_path,
                 load (fresh_session ()) ~nodes:nodes_csv ~rels:rels_csv )
             with
            | Ok r, Ok expected ->
                Alcotest.(check (list int)) "report"
                  [ expected.Bulk.nodes_created; expected.Bulk.rels_created ]
                  [ r.Bulk.nodes_created; r.Bulk.rels_created ];
                Alcotest.(check int) "nodes" 3 (Graph.node_count (Session.graph s))
            | Error e, _ | _, Error e -> Alcotest.failf "load: %s" (Errors.to_string e));
            write_file rels_path "src,tgt,type\nu1,u2,R\nu1,ghost,R\n";
            check_error
              ~sub:(Printf.sprintf "bulk load (%s:3): unknown target node id \"ghost\"" rels_path)
              (Bulk.load_files (fresh_session ()) ~nodes_path ~rels_path);
            let missing = Filename.concat dir "absent.csv" in
            match Bulk.load_files (fresh_session ()) ~nodes_path:missing ~rels_path with
            | Ok _ -> Alcotest.fail "loaded a missing file"
            | Error (Errors.Update_error m) ->
                Alcotest.(check bool) (Printf.sprintf "%S names the file" m) true
                  (contains ~sub:"bulk load: " m && contains ~sub:missing m)
            | Error e -> Alcotest.failf "expected Update_error, got %s" (Errors.to_string e)));
  ]

let suite =
  validation_tests @ storage_tests @ frame_tests @ equivalence_tests @ sharing_tests
  @ replay_tests @ transaction_tests @ file_tests
