(** The durable storage layer: WAL framing, torn-write matrix, snapshot
    files, recovery, the session journal sink, and [Store.open_db]. *)

open Cypher_graph
open Test_util
module Session = Cypher_core.Session
module Config = Cypher_core.Config
module Stats = Cypher_core.Stats
module Wal = Cypher_storage.Wal
module Snapshot = Cypher_storage.Snapshot
module Recovery = Cypher_storage.Recovery
module Store = Cypher_storage.Store

let tmpdir () =
  let path = Filename.temp_file "cypher_store" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
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

let ok_or_fail = function Ok x -> x | Error m -> Alcotest.fail m

let run_ok s src =
  match Session.run s src with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "session run failed: %s" (Cypher_core.Errors.to_string e)

let record ?(mode = Config.Atomic) ?(order = Config.Forward)
    ?(match_mode = Config.Isomorphic) ?(stats = Stats.empty)
    ?(params = Cypher_util.Maps.Smap.empty) src =
  {
    Session.je_src = src;
    je_stats = stats;
    je_config = { Config.permissive with mode; order; match_mode; params };
    je_kind = `Statement;
  }

let some_stats =
  {
    Stats.empty with
    Stats.nodes_created = 2;
    rels_created = 1;
    props_set = 3;
    rows = 7;
  }

(* ------------------------------------------------------------------ *)
(* WAL framing                                                        *)
(* ------------------------------------------------------------------ *)

let wal_tests =
  [
    case "records round-trip through encode/scan" (fun () ->
        let rs =
          [
            record ~stats:some_stats "CREATE (:A {k: 1})";
            record ~mode:Config.Legacy ~order:(Config.Seeded 42)
              ~match_mode:Config.Homomorphic
              "MATCH (n)\nSET n.k = 2";
            record "MATCH (n) DETACH DELETE n";
          ]
        in
        let bytes = String.concat "" (List.map Wal.encode rs) in
        let rs', clean, torn = Wal.scan_string bytes in
        Alcotest.(check bool) "no tear" true (torn = None);
        Alcotest.(check int) "clean length" (String.length bytes) clean;
        Alcotest.(check int) "count" 3 (List.length rs');
        List.iter2
          (fun (a : Session.journal_entry) (b : Session.journal_entry) ->
            Alcotest.(check string) "src" a.Session.je_src b.Session.je_src;
            Alcotest.(check bool) "stats" true (Stats.equal a.Session.je_stats b.Session.je_stats);
            (* [record] builds the replay configuration decoding gives *)
            Alcotest.(check bool) "config" true (a.Session.je_config = b.Session.je_config))
          rs rs');
    case "empty input scans to the empty journal" (fun () ->
        Alcotest.(check bool) "empty" true (Wal.scan_string "" = ([], 0, None)));
    case "torn-write matrix: every truncation point of a 3-record journal"
      (fun () ->
        let rs =
          [
            record "CREATE (:A)";
            record ~stats:some_stats "CREATE (:B {s: 'it''s'})";
            record "MATCH (a:A)\nDELETE a";
          ]
        in
        let frames = List.map Wal.encode rs in
        let bytes = String.concat "" frames in
        (* byte offset of the end of each record *)
        let ends =
          let off = ref 0 in
          List.map (fun f -> off := !off + String.length f; !off) frames
        in
        for cut = 0 to String.length bytes - 1 do
          let kept, clean, torn = Wal.scan_string (String.sub bytes 0 cut) in
          let full = List.length (List.filter (fun b -> b <= cut) ends) in
          Alcotest.(check int)
            (Printf.sprintf "records at cut %d" cut)
            full (List.length kept);
          if cut = 0 || List.mem cut ends then
            Alcotest.(check bool)
              (Printf.sprintf "no tear at boundary %d" cut)
              true (torn = None)
          else (
            Alcotest.(check bool)
              (Printf.sprintf "tear reported at cut %d" cut)
              true (torn <> None);
            Alcotest.(check int)
              (Printf.sprintf "tear offset at cut %d" cut)
              clean
              (match torn with Some t -> t.Wal.t_offset | None -> -1))
        done);
    case "single-byte corruption never yields a record" (fun () ->
        let r = record ~stats:some_stats "CREATE (:A {k: 1})-[:T]->(:B)" in
        let bytes = Wal.encode r in
        for i = 0 to String.length bytes - 1 do
          let damaged =
            String.mapi
              (fun j c ->
                if j = i then Char.chr ((Char.code c + 1) land 0xff) else c)
              bytes
          in
          match Wal.scan_string damaged with
          | [], _, Some _ -> ()
          | kept, _, torn ->
              Alcotest.failf
                "corrupting byte %d: %d record(s) kept, torn=%s" i
                (List.length kept)
                (match torn with Some t -> t.Wal.t_reason | None -> "none")
        done);
    case "writer appends and read_file scans them back" (fun () ->
        with_tmpdir (fun dir ->
            let path = Filename.concat dir "j.wal" in
            let w = Wal.open_writer ~durability:Config.Fsync path in
            Wal.append w [ record "CREATE (:A)" ];
            Wal.append w [ record "CREATE (:B)"; record "CREATE (:C)" ];
            Wal.close_writer w;
            (* several records in one append are the frames [encode] gives, back to back *)
            Alcotest.(check string) "bytes"
              (String.concat ""
                 (List.map (fun s -> Wal.encode (record s)) [ "CREATE (:A)"; "CREATE (:B)"; "CREATE (:C)" ]))
              (In_channel.with_open_bin path In_channel.input_all);
            let rs, _, torn = Wal.read_file path in
            Alcotest.(check bool) "clean" true (torn = None);
            Alcotest.(check (list string)) "sources"
              [ "CREATE (:A)"; "CREATE (:B)"; "CREATE (:C)" ]
              (List.map (fun (e : Session.journal_entry) -> e.Session.je_src) rs)));
    case "a frame length past the end of the input is a torn tail" (fun () ->
        match Wal.scan_string "%4611686018427387903 00000000\nm=atomic\n" with
        | [], 0, Some t -> Alcotest.(check string) "reason" "truncated payload" t.Wal.t_reason
        | kept, _, _ -> Alcotest.failf "%d record(s) kept" (List.length kept));
    (* a journal written through a journaling session: both update
       regimes, reversed and seeded order, homomorphic matching,
       parameters that need percent-encoding, and one bulk frame *)
    case "statements_v1.wal decodes, re-encodes byte for byte and replays" (fun () ->
        let wal = In_channel.with_open_bin (fixture "journals/statements_v1.wal") In_channel.input_all in
        let entries, clean, torn = Wal.scan_string wal in
        Alcotest.(check bool) "no tear" true (torn = None);
        Alcotest.(check int) "clean length" (String.length wal) clean;
        Alcotest.(check int) "frames" 11 (List.length entries);
        let ends =
          List.fold_left
            (fun off e ->
              let frame = Wal.encode e in
              Alcotest.(check string)
                (Printf.sprintf "frame at %d" off)
                (String.sub wal off (String.length frame))
                frame;
              off + String.length frame)
            0 entries
        in
        Alcotest.(check int) "frames cover the file" (String.length wal) ends;
        match Recovery.recover_strings ~wal () with
        | Error m -> Alcotest.fail m
        | Ok r ->
            Alcotest.(check string) "image MD5" "2a3d0242424eae4a1cf207162d5b5f5c"
              (Digest.to_hex (Digest.string (Snapshot.to_string r.Recovery.graph))));
    case "read_file on a missing path is the empty journal" (fun () ->
        Alcotest.(check bool) "empty" true
          (Wal.read_file "/nonexistent/journal.wal" = ([], 0, None)));
  ]

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

(* a snapshot image around [body] with a correct checksum, so only the
   body's own validity is on trial *)
let image ~nodes ~rels body =
  Printf.sprintf "#cypher-snapshot v1 nodes=%d rels=%d crc=%s\n%s" nodes rels
    (Cypher_storage.Crc32.to_hex (Cypher_storage.Crc32.digest body))
    body

let snapshot_tests =
  [
    case "snapshot round-trips a graph with a property index" (fun () ->
        let g =
          Graph.add_prop_index ~label:"A" ~key:"id"
            (graph_of
               "CREATE (:A {id: 1, s: 'x'})-[:T {w: 2.5}]->(:B), (:C)")
        in
        let g' = ok_or_fail (Snapshot.parse (Snapshot.to_string g)) in
        Alcotest.check graph_iso_testable "isomorphic" g g';
        Alcotest.(check bool) "index preserved" true
          (Graph.prop_index_keys g' = [ ("A", "id") ]));
    case "snapshot of the empty graph round-trips" (fun () ->
        let g' = ok_or_fail (Snapshot.parse (Snapshot.to_string Graph.empty)) in
        Alcotest.(check int) "no nodes" 0 (Graph.node_count g'));
    case "snapshot body corruption is rejected" (fun () ->
        let img = Snapshot.to_string (graph_of "CREATE (:A {k: 1})") in
        let i = String.index img '\n' + 3 in
        let damaged =
          String.mapi (fun j c -> if j = i then 'Z' else c) img
        in
        match Snapshot.parse damaged with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "corrupt snapshot accepted");
    case "a flipped first or last body byte fails the checksum" (fun () ->
        let img = Snapshot.to_string (graph_of "CREATE (:A {k: 1})-[:T]->(:B)") in
        let flip i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) img in
        List.iter
          (fun (what, i) ->
            match Snapshot.parse (flip i) with
            | Error m when m = "snapshot: body checksum mismatch" -> ()
            | Error m -> Alcotest.failf "%s: %s" what m
            | Ok _ -> Alcotest.failf "%s: corrupt snapshot accepted" what)
          [ ("first body byte", String.index img '\n' + 1); ("last body byte", String.length img - 1) ]);
    case "a header-only image opens as the empty graph" (fun () ->
        let empty_crc = Cypher_storage.Crc32.(to_hex (digest "")) in
        List.iter
          (fun img ->
            let g = ok_or_fail (Snapshot.parse img) in
            Alcotest.(check int) "no nodes" 0 (Graph.node_count g))
          [
            Printf.sprintf "#cypher-snapshot v1 nodes=0 rels=0 crc=%s" empty_crc;
            Printf.sprintf "#cypher-snapshot v1 nodes=0 rels=0 crc=%s\n" empty_crc;
          ]);
    case "index lines keep plain names bare and quote the rest" (fun () ->
        let g = graph_of "CREATE (:A {id: 1})" in
        let indexed =
          List.fold_left
            (fun g (label, key) -> Graph.add_prop_index ~label ~key g)
            g
            [ ("A", "id"); ("My Label", "k"); ("L", "a key"); ("L", "line\nbreak"); ("B`q", "k") ]
        in
        let img = Snapshot.to_string indexed in
        let lines = String.split_on_char '\n' img in
        Alcotest.(check bool) "plain line unchanged" true
          (List.mem "// index: A id" lines);
        Alcotest.(check bool) "quoted label" true (List.mem "// index: `My Label` k" lines);
        let g' = ok_or_fail (Snapshot.parse img) in
        Alcotest.(check (list (pair string string))) "indexes"
          (Graph.prop_index_keys indexed) (Graph.prop_index_keys g');
        Alcotest.(check string) "re-imaging is a fixpoint" img (Snapshot.to_string g'));
    case "non-snapshot content is rejected" (fun () ->
        match Snapshot.parse "CREATE (:A);\n" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage accepted as snapshot");
    case "write/read through a file" (fun () ->
        with_tmpdir (fun dir ->
            let path = Filename.concat dir "snap.cy" in
            let g = graph_of "CREATE (:A)-[:T]->(:B)" in
            Snapshot.write path g;
            (match Snapshot.read path with
            | Ok (Some g') -> Alcotest.check graph_iso_testable "iso" g g'
            | Ok None -> Alcotest.fail "snapshot missing"
            | Error m -> Alcotest.fail m);
            Alcotest.(check bool) "no tmp litter" false
              (Sys.file_exists (path ^ ".tmp"))));
    case "read on a missing path is Ok None" (fun () ->
        Alcotest.(check bool) "none" true
          (Snapshot.read "/nonexistent/snap.cy" = Ok None));
    case "decoding builds the graph executing the script builds" (fun () ->
        (* deletions leave id gaps: the decoded graph renumbers exactly
           as executing the dump on the empty graph does *)
        let g =
          graph_of "CREATE (:A {k: 0})-[:T]->(:B {k: 1}), (:C {k: 2})-[:U]->(:D)"
        in
        let g = run_graph g "MATCH (b:B) DETACH DELETE b" in
        let decoded = ok_or_fail (Snapshot.parse (Snapshot.to_string g)) in
        let executed =
          run_graph ~config:Config.permissive Graph.empty (Cypher_graph.Dump.to_cypher g)
        in
        Alcotest.(check string) "same image" (Snapshot.to_string executed)
          (Snapshot.to_string decoded);
        Alcotest.(check (list int)) "rel ids" (Graph.rel_ids executed)
          (Graph.rel_ids decoded);
        Alcotest.(check int) "next_id" (Graph.next_id executed) (Graph.next_id decoded);
        let img = Snapshot.to_string decoded in
        Alcotest.(check string) "re-imaging is a fixpoint" img
          (Snapshot.to_string (ok_or_fail (Snapshot.parse img))));
    case "whitespace between tokens is free" (fun () ->
        let g =
          ok_or_fail
            (Snapshot.parse
               (image ~nodes:2 ~rels:1
                  "\n  CREATE(n0:A{k:1}) ,\t(n1)\r\n,( n0 )-[ :T {w : 2.5} ]->( n1 ) ;\n\n"))
        in
        Alcotest.check graph_iso_testable "decoded"
          (graph_of "CREATE (:A {k: 1})-[:T {w: 2.5}]->()")
          g);
    case "malformed bodies under a valid checksum are errors, never raises"
      (fun () ->
        List.iter
          (fun (what, nodes, rels, body) ->
            match Snapshot.parse (image ~nodes ~rels body) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s: accepted %S" what body
            | exception e ->
                Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
          [
            ("unbound endpoint", 2, 1, "CREATE (n0), (n1)-[:T]->(n0);\n");
            ("unbound target", 2, 1, "CREATE (n0), (n0)-[:T]->(n9);\n");
            ("rebound variable", 2, 0, "CREATE (n0), (n0);\n");
            ("labelled endpoint", 2, 1, "CREATE (n0), (n1), (n0:A)-[:T]->(n1);\n");
            ("propertied endpoint", 2, 1, "CREATE (n0), (n1), (n0)-[:T]->(n1 {k: 1});\n");
            ("bad escape", 1, 0, "CREATE (n0 {s: 'a\\qb'});\n");
            ("short \\u escape", 1, 0, "CREATE (n0 {s: '\\u12'});\n");
            ("unterminated string", 1, 0, "CREATE (n0 {s: 'abc});\n");
            ("unterminated script", 2, 0, "CREATE (n0), (n1)");
            ("unterminated pattern", 1, 0, "CREATE (n0:A");
            ("trailing bytes", 1, 0, "CREATE (n0);\nMATCH (n) RETURN n;\n");
            ("second statement", 2, 0, "CREATE (n0);\nCREATE (n1);\n");
            ("duplicate key", 1, 0, "CREATE (n0 {k: 1, k: 2});\n");
            ("duplicate nested key", 1, 0, "CREATE (n0 {m: {a: 1, a: 2}});\n");
            ("integer overflow", 1, 0, "CREATE (n0 {k: 4611686018427387904});\n");
            ("arithmetic", 1, 0, "CREATE (n0 {k: (1 + 1)});\n");
            ("relationship variable", 2, 1, "CREATE (n0), (n1), (n0)-[r:T]->(n1);\n");
            ("chained pattern", 3, 2, "CREATE (n0), (n1), (n2), (n0)-[:T]->(n1)-[:T]->(n2);\n");
            ("incoming arrow", 2, 1, "CREATE (n0), (n1), (n0)<-[:T]-(n1);\n");
            ("not a CREATE", 0, 0, "MATCH (n) DELETE n;\n");
            ("malformed index line", 1, 0, "// index: A\nCREATE (n0:A);\n");
            ("index line with three names", 1, 0, "// index: A k x\nCREATE (n0:A);\n");
            ("unterminated quoted index name", 1, 0, "// index: `A k\nCREATE (n0:A);\n");
            ("count mismatch", 2, 0, "CREATE (n0);\n");
          ]);
  ]

(* An image in the layout written before entities lost their
   continuation indent (",\n       " between patterns, now ",\n"),
   kept under snapshots/: it must still open, to the graph its source
   script builds, and re-image to the new layout. *)
let indented_source =
  "CREATE (a:Person:`odd label\nwith a space` {name: 'Ann', id: 1, s: 'it\\'s a \\\\ \"q\"\\ttab\\nline'}),\n\
  \  (b:Person {name: 'Bob', id: 2, nan: 0.0 / 0.0, inf: 1.0 / 0.0, ninf: -1.0 / 0.0, mi: -4611686018427387903 - 1}),\n\
  \  (c:Item {sku: 'x-1', nested: [1, [2.5, 'two'], [], [[true, 'u\\u00e9']]], m: {`a key`: [1, {b: 'c'}], z: -0.0}}),\n\
  \  (d:Item:`odd label\nwith a space` {sku: 'x-2', name: 'Dee'}),\n\
  \  (e),\n\
  \  (a)-[:KNOWS {since: 2001}]->(b),\n\
  \  (a)-[:KNOWS {since: 2002}]->(b),\n\
  \  (b)-[:KNOWS]->(a),\n\
  \  (c)-[:SELF {w: 1.5e300}]->(c),\n\
  \  (d)-[:`odd type`]->(d)"

let indented_indexes = [ ("Person", "id"); ("odd label\nwith a space", "name") ]

(* [s] with every occurrence of [sub] replaced by [by] *)
let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let rec go i =
    if i > String.length s - n then Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then (
      Buffer.add_string b by;
      go (i + n))
    else (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

let layout_tests =
  [
    case "an indented image opens to its script's graph and re-images unindented" (fun () ->
        let path = fixture "snapshots/indented_v1.cy" in
        let old = In_channel.with_open_bin path In_channel.input_all in
        let g =
          match Snapshot.read path with
          | Ok (Some g) -> g
          | Ok None -> Alcotest.failf "%s missing" path
          | Error m -> Alcotest.fail m
        in
        let executed =
          run_graph
            (List.fold_left
               (fun g (label, key) -> Graph.add_prop_index ~label ~key g)
               Graph.empty indented_indexes)
            indented_source
        in
        check_same_graph "opened" executed g;
        (* the new image: the old body without the indents, under a
           header whose CRC is the new body's *)
        let nl = String.index old '\n' in
        let body = replace_all ~sub:",\n       " ~by:",\n" (String.sub old (nl + 1) (String.length old - nl - 1)) in
        Alcotest.(check bool) "the fixture is indented" true (String.length body < String.length old - nl - 1);
        let header = String.sub old 0 (nl - 8) ^ Cypher_storage.Crc32.(to_hex (digest body)) in
        let img = Snapshot.to_string g in
        Alcotest.(check string) "re-imaged" (header ^ "\n" ^ body) img;
        Alcotest.(check string) "fixpoint" img (Snapshot.to_string (ok_or_fail (Snapshot.parse img))));
  ]

(* ------------------------------------------------------------------ *)
(* Session journal sink                                               *)
(* ------------------------------------------------------------------ *)

let sink_into log =
  Some (fun entries -> log := !log @ entries)

let srcs log = List.map (fun e -> e.Session.je_src) !log

let session_journal_tests =
  [
    case "statements outside a transaction journal immediately" (fun () ->
        let log = ref [] in
        let s = Session.create Graph.empty in
        Session.set_journal s (sink_into log);
        ignore (run_ok s "CREATE (:A)");
        ignore (run_ok s "MATCH (n) RETURN n");
        ignore (run_ok s "CREATE (:B)");
        Alcotest.(check (list string)) "updates only"
          [ "CREATE (:A)"; "CREATE (:B)" ] (srcs log));
    case "a transaction journals once, at the outermost commit" (fun () ->
        let log = ref [] in
        let s = Session.create Graph.empty in
        Session.set_journal s (sink_into log);
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:A)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:B)");
        (match Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "inner commit flushes nothing" 0
          (List.length !log);
        ignore (run_ok s "CREATE (:C)");
        (match Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check (list string)) "statement order preserved"
          [ "CREATE (:A)"; "CREATE (:B)"; "CREATE (:C)" ]
          (srcs log));
    case "rollback journals nothing" (fun () ->
        let log = ref [] in
        let s = Session.create Graph.empty in
        Session.set_journal s (sink_into log);
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:A)");
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check int) "empty journal" 0 (List.length !log);
        Alcotest.(check int) "graph rolled back" 0
          (Graph.node_count (Session.graph s)));
    case "a sink attached mid-transaction journals nothing on rollback"
      (fun () ->
        let log = ref [] in
        let s = Session.create Graph.empty in
        Session.begin_tx s;
        Session.set_journal s (sink_into log);
        ignore (run_ok s "CREATE (:A)");
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check (list string)) "sink received nothing" [] (srcs log);
        Alcotest.(check int) "graph rolled back" 0
          (Graph.node_count (Session.graph s)));
    case "inner rollback drops only the inner entries" (fun () ->
        let log = ref [] in
        let s = Session.create Graph.empty in
        Session.set_journal s (sink_into log);
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Keep)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Drop)");
        (match Session.rollback s with Ok () -> () | Error m -> Alcotest.fail m);
        (match Session.commit s with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check (list string)) "outer entry survives"
          [ "CREATE (:Keep)" ] (srcs log));
    case "write-ahead: a failing sink blocks the statement" (fun () ->
        let s = Session.create Graph.empty in
        Session.set_journal s (Some (fun _ -> failwith "disk full"));
        (match Session.run s "CREATE (:A)" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "statement succeeded past a failing journal");
        Alcotest.(check int) "graph did not advance" 0
          (Graph.node_count (Session.graph s)));
    case "a failing sink at commit rolls the transaction back" (fun () ->
        let s = Session.create Graph.empty in
        Session.set_journal s (Some (fun _ -> failwith "disk full"));
        Session.begin_tx s;
        (* buffered: the sink is not touched yet, so this succeeds *)
        ignore (run_ok s "CREATE (:A)");
        (match Session.commit s with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "commit succeeded past a failing journal");
        Alcotest.(check int) "rolled back" 0
          (Graph.node_count (Session.graph s));
        Alcotest.(check bool) "tx closed" false (Session.in_transaction s));
    case "a failing sink rolls back a nested transaction stack" (fun () ->
        (* entries buffered at depth 2 fold into depth 1 at the inner
           commit; only the outermost commit touches the sink, and its
           failure must unwind the whole stack to the pre-begin graph *)
        let s = Session.create Graph.empty in
        Session.set_journal s (Some (fun _ -> failwith "disk full"));
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Outer)");
        Session.begin_tx s;
        ignore (run_ok s "CREATE (:Inner)");
        (match Session.commit s with
        | Ok () -> () (* inner commit only folds entries outward *)
        | Error m -> Alcotest.failf "inner commit touched the sink: %s" m);
        Alcotest.(check bool) "still in tx" true (Session.in_transaction s);
        (match Session.commit s with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "outer commit succeeded past a failing sink");
        Alcotest.(check int) "both levels rolled back" 0
          (Graph.node_count (Session.graph s));
        Alcotest.(check bool) "tx closed" false (Session.in_transaction s));
  ]

(* ------------------------------------------------------------------ *)
(* Store / recovery end to end                                        *)
(* ------------------------------------------------------------------ *)

let open_ok ?config dir = ok_or_fail (Store.open_db ?config dir)

let store_tests =
  [
    case "open_db on a fresh directory recovers the empty graph" (fun () ->
        with_tmpdir (fun dir ->
            let db = Filename.concat dir "db" in
            let store, session = open_ok db in
            Alcotest.(check int) "empty" 0
              (Graph.node_count (Session.graph session));
            Alcotest.(check int) "nothing replayed" 0
              (Store.recovery store).Recovery.replayed;
            Store.close store));
    case "journal-only reopen reproduces the live graph" (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (:A {k: 1})-[:T]->(:B)");
            ignore (run_ok session "MATCH (a:A) SET a.k = 2");
            let live = Session.graph session in
            Store.close store;
            let store2, session2 = open_ok dir in
            Alcotest.check graph_iso_testable "iso" live
              (Session.graph session2);
            Alcotest.(check int) "both statements replayed" 2
              (Store.recovery store2).Recovery.replayed;
            Store.close store2));
    case "snapshot + journal reopen equals journal-only reopen" (fun () ->
        with_tmpdir (fun dir ->
            let plain = Filename.concat dir "plain" in
            let compacted = Filename.concat dir "compacted" in
            let stmts =
              [
                "CREATE (:A {id: 1})-[:T]->(:B)";
                "CREATE (:C {s: 'x'})";
                "MATCH (a:A) SET a.id = 9";
                "MATCH (c:C) DETACH DELETE c";
              ]
            in
            let build dir ~compact_after =
              let store, session = open_ok dir in
              List.iteri
                (fun i src ->
                  ignore (run_ok session src);
                  if Some i = compact_after then
                    ok_or_fail (Store.compact store session))
                stmts;
              let live = Session.graph session in
              Store.close store;
              live
            in
            let live_plain = build plain ~compact_after:None in
            let live_comp = build compacted ~compact_after:(Some 1) in
            Alcotest.check graph_iso_testable "same live graph" live_plain
              live_comp;
            let s1, g1 = open_ok plain and s2, g2 = open_ok compacted in
            Alcotest.(check bool) "compacted store loaded a snapshot" true
              (Store.recovery s2).Recovery.snapshot_loaded;
            Alcotest.(check int) "compacted store replays the tail only" 2
              (Store.recovery s2).Recovery.replayed;
            Alcotest.check graph_iso_testable "recoveries agree"
              (Session.graph g1) (Session.graph g2);
            Alcotest.check graph_iso_testable "and match the live graph"
              live_plain (Session.graph g1);
            Store.close s1;
            Store.close s2));
    case "compact empties the journal and survives reopen" (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (:A), (:B)");
            ok_or_fail (Store.compact store session);
            Alcotest.(check bool) "journal emptied" true
              (Wal.read_file (Filename.concat dir "journal.wal") = ([], 0, None));
            ignore (run_ok session "CREATE (:C)");
            let live = Session.graph session in
            Store.close store;
            let store2, session2 = open_ok dir in
            Alcotest.check graph_iso_testable "iso" live (Session.graph session2);
            Store.close store2));
    case "a nan reads the same through toString after compaction and reopen" (fun () ->
        with_tmpdir (fun dir ->
            let to_string session =
              match
                Cypher_table.Table.rows
                  (run_ok session "MATCH (a:A) RETURN toString(a.f) AS s").Cypher_core.Api.r_table
              with
              | [ row ] -> Cypher_table.Record.find row "s"
              | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)
            in
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (:A {f: toFloat('nan')})");
            Test_util.check_value "live" (Value.String "nan") (to_string session);
            ok_or_fail (Store.compact store session);
            Store.close store;
            let store2, session2 = open_ok dir in
            Test_util.check_value "reopened" (Value.String "nan") (to_string session2);
            Store.close store2));
    case "a compacted and reopened store counts types as a scan does" (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            List.iter
              (fun src -> ignore (run_ok session src))
              [
                "UNWIND range(1, 30) AS i CREATE (:P {i: i})-[:KNOWS]->(:P)-[:LIKES]->(:Q)";
                "MATCH ()-[r:LIKES]->(q:Q) WHERE id(q) % 3 = 0 DELETE r";
                "MATCH (p:P {i: 7}) DETACH DELETE p";
                "MATCH (a:P {i: 1}), (b:P {i: 2}) CREATE (a)-[:`ODD TYPE`]->(b)";
              ];
            ok_or_fail (Store.compact store session);
            ignore (run_ok session "MATCH ()-[r:KNOWS]->() WHERE r IS NOT NULL WITH r LIMIT 2 DELETE r");
            let live = Session.graph session in
            Store.close store;
            let store2, session2 = open_ok dir in
            let g = Session.graph session2 in
            Alcotest.(check bool) "snapshot loaded" true
              (Store.recovery store2).Recovery.snapshot_loaded;
            Alcotest.(check (list (pair string int)))
              "histogram = scan" (scanned_type_histogram g) (Graph.type_histogram g);
            Alcotest.(check (list (pair string int)))
              "histogram = live" (Graph.type_histogram live) (Graph.type_histogram g);
            Alcotest.(check int) "one odd type" 1 (Graph.type_count g "ODD TYPE");
            Store.close store2));
    case "indexes on names that are not identifiers survive compaction"
      (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (:`My Label` {k: 1, `a key`: 2})");
            List.iter
              (fun (label, key) -> Session.register_prop_index session ~label ~key)
              [ ("My Label", "k"); ("My Label", "a key"); ("My Label", "new\nline") ];
            ok_or_fail (Store.compact store session);
            let live = Session.graph session in
            Store.close store;
            let store2, session2 = open_ok dir in
            Alcotest.(check bool) "snapshot loaded" true
              (Store.recovery store2).Recovery.snapshot_loaded;
            Alcotest.(check (list (pair string string))) "indexes"
              (Graph.prop_index_keys live)
              (Graph.prop_index_keys (Session.graph session2));
            Alcotest.check graph_iso_testable "iso" live (Session.graph session2);
            Store.close store2));
    case "compact is refused mid-transaction" (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            Session.begin_tx session;
            (match Store.compact store session with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "compacted inside a transaction");
            Store.close store));
    case "a torn journal tail is reported and truncated on open" (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (:A)");
            ignore (run_ok session "CREATE (:B)");
            Store.close store;
            let wal_path = Filename.concat dir "journal.wal" in
            let intact = (Unix.stat wal_path).Unix.st_size in
            let oc = open_out_gen [ Open_append ] 0o644 wal_path in
            output_string oc "%39 deadbeef\nm=atomic o=fwd x=iso s=0,0";
            close_out oc;
            let store2, session2 = open_ok dir in
            let r = Store.recovery store2 in
            Alcotest.(check bool) "tear reported" true (r.Recovery.torn <> None);
            Alcotest.(check int) "replayed up to the tear" 2 r.Recovery.replayed;
            Alcotest.(check int) "both nodes present" 2
              (Graph.node_count (Session.graph session2));
            Alcotest.(check int) "file truncated back" intact
              (Unix.stat wal_path).Unix.st_size;
            Store.close store2));
    case "uncommitted transactions are invisible to recovery" (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (:Durable)");
            Session.begin_tx session;
            ignore (run_ok session "CREATE (:Lost)");
            (* simulate a crash: close without commit *)
            Store.close store;
            let store2, session2 = open_ok dir in
            Alcotest.(check int) "only the committed statement" 1
              (Graph.node_count (Session.graph session2));
            Store.close store2));
    case "a statement that nets to zero but consumed ids is journaled" (fun () ->
        (* the first statement's counters net to zero, yet it takes id
           0; unjournaled, replay would give B id 0 and the SET would
           find nothing *)
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (n:A) DELETE n");
            ignore (run_ok session "CREATE (:B {k: 1})");
            ignore (run_ok session "MATCH (n) WHERE id(n) = 1 SET n.v = 'hit'");
            let live = Session.graph session in
            Store.close store;
            let store2, session2 = open_ok dir in
            Test_util.check_same_graph "reopened" live (Session.graph session2);
            Alcotest.(check int) "all three statements replayed" 3
              (Store.recovery store2).Recovery.replayed;
            Store.close store2));
    case "a corrupt snapshot fails open_db loudly" (fun () ->
        with_tmpdir (fun dir ->
            let store, session = open_ok dir in
            ignore (run_ok session "CREATE (:A)");
            ok_or_fail (Store.compact store session);
            Store.close store;
            let snap = Filename.concat dir "snapshot.cy" in
            let img = In_channel.with_open_text snap In_channel.input_all in
            Out_channel.with_open_text snap (fun oc ->
                Out_channel.output_string oc (img ^ "CREATE (:Sneaky);\n"));
            match Store.open_db dir with
            | Error _ -> ()
            | Ok (store2, _) ->
                Store.close store2;
                Alcotest.fail "tampered snapshot accepted"));
    case "open_db on a file path fails" (fun () ->
        with_tmpdir (fun dir ->
            let path = Filename.concat dir "afile" in
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc "not a directory");
            match Store.open_db path with
            | Error _ -> ()
            | Ok (store, _) ->
                Store.close store;
                Alcotest.fail "opened a database inside a plain file"));
    case "buffered durability journals and recovers too" (fun () ->
        with_tmpdir (fun dir ->
            let config = Config.with_durability Config.Buffered Config.revised in
            let store, session = open_ok ~config dir in
            ignore (run_ok session "CREATE (:A)");
            Store.close store;
            let store2, session2 = open_ok dir in
            Alcotest.(check int) "recovered" 1
              (Graph.node_count (Session.graph session2));
            Store.close store2));
    case "legacy-semantics statements replay under legacy semantics" (fun () ->
        with_tmpdir (fun dir ->
            (* order-sensitive legacy SET: replay must use the recorded
               mode/order, not the session default *)
            let config = Config.with_order Config.Reverse Config.cypher9 in
            let store, session = open_ok ~config dir in
            ignore (run_ok session "CREATE (:A {k: 1}), (:A {k: 2})");
            ignore
              (run_ok session "MATCH (a:A), (b:A) SET a.k = b.k");
            let live = Session.graph session in
            Store.close store;
            let store2, session2 = open_ok dir in
            Alcotest.check graph_iso_testable "legacy replay agrees" live
              (Session.graph session2);
            Store.close store2));
  ]

(* ------------------------------------------------------------------ *)
(* CRC-32                                                             *)
(* ------------------------------------------------------------------ *)

(* the one-table, one-byte-at-a-time CRC the sliced one must equal *)
let reference_crc ?(pos = 0) s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to String.length s - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc_tests =
  let module Crc32 = Cypher_storage.Crc32 in
  [
    case "CRC-32 of the check string is cbf43926" (fun () ->
        Alcotest.(check string) "check" "cbf43926" (Crc32.to_hex (Crc32.digest "123456789"));
        Alcotest.(check string) "offset" "cbf43926"
          (Crc32.to_hex (Crc32.digest ~pos:3 "abc123456789")));
    case "sliced CRC-32 equals the bytewise one at every offset and length" (fun () ->
        let rng = Random.State.make [| 29 |] in
        for len = 0 to 70 do
          let s = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
          for pos = 0 to len do
            let want = reference_crc ~pos s and got = Crc32.digest ~pos s in
            if want <> got then
              Alcotest.failf "len %d pos %d: %s, expected %s" len pos (Crc32.to_hex got)
                (Crc32.to_hex want);
            (* a bounded run reads only its [n] bytes *)
            for n = 0 to len - pos do
              let want = reference_crc (String.sub s pos n) in
              let got = Crc32.digest ~pos ~len:n s in
              if want <> got then
                Alcotest.failf "len %d pos %d ~len %d: %s, expected %s" len pos n
                  (Crc32.to_hex got) (Crc32.to_hex want)
            done
          done
        done);
    case "CRC-32 refuses an offset outside the string" (fun () ->
        List.iter
          (fun pos ->
            Alcotest.check_raises (string_of_int pos) (Invalid_argument "Crc32.digest") (fun () ->
                ignore (Crc32.digest ~pos "abc")))
          [ -1; 4 ];
        List.iter
          (fun (pos, len) ->
            Alcotest.check_raises
              (Printf.sprintf "pos %d len %d" pos len)
              (Invalid_argument "Crc32.digest")
              (fun () -> ignore (Crc32.digest ~pos ~len "abc")))
          [ (0, 4); (2, 2); (1, -1); (-1, 1) ]);
  ]

let suite = wal_tests @ snapshot_tests @ layout_tests @ session_journal_tests @ store_tests @ crc_tests
