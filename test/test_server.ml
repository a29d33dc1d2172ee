(** The concurrent multi-session server: snapshot-isolated reads,
    the group committer's batching and failure isolation, commit-time
    replay, the newline protocol, and the TCP front end. *)

open Cypher_graph
open Test_util
module Session = Cypher_core.Session
module Shared = Cypher_server.Shared
module Service = Cypher_server.Service
module Server = Cypher_server.Server

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* run one request line and return the full response *)
let req svc line = Service.handle svc line

(* the terminator of a response, e.g. "OK rows=1 version=3" *)
let terminator = function
  | [] -> Alcotest.fail "empty response"
  | lines -> List.nth lines (List.length lines - 1)

let is_ok lines =
  match terminator lines with
  | t -> String.length t >= 2 && String.sub t 0 2 = "OK"

let expect_ok name lines =
  if not (is_ok lines) then
    Alcotest.failf "%s: expected OK, got %s" name
      (String.concat " / " lines)

let expect_err name lines =
  if is_ok lines then
    Alcotest.failf "%s: expected ERR, got %s" name
      (String.concat " / " lines)

let shared_tests =
  [
    case "auto-commit updates advance the shared head" (fun () ->
        let shared = Shared.create Graph.empty in
        let a = Service.create shared in
        let b = Service.create shared in
        expect_ok "create" (req a "CREATE (:A {k: 1})");
        (* the other connection reads the committed head *)
        let lines = req b "MATCH (n:A) RETURN n.k AS k" in
        expect_ok "read" lines;
        Alcotest.(check bool) "sees the write" true
          (List.exists (fun l -> contains l "1") lines);
        let v, head = Shared.current shared in
        Alcotest.(check int) "version advanced" 1 v;
        Alcotest.(check int) "one node" 1 (Graph.node_count head));
    case "reads inside a transaction are snapshot-stable" (fun () ->
        let shared = Shared.create Graph.empty in
        let reader = Service.create shared in
        let writer = Service.create shared in
        expect_ok "seed" (req writer "CREATE (:A {k: 1})");
        expect_ok "begin" (req reader ":begin");
        let before = req reader "MATCH (n:A) RETURN count(n) AS c" in
        expect_ok "read before" before;
        (* a concurrent commit lands while the reader's tx is open *)
        expect_ok "concurrent write" (req writer "CREATE (:A {k: 2})");
        let during = req reader "MATCH (n:A) RETURN count(n) AS c" in
        (* byte-stable: the pinned snapshot is immune to the commit *)
        Alcotest.(check (list string)) "snapshot unchanged" before during;
        expect_ok "commit" (req reader ":commit");
        let after = req reader "MATCH (n:A) RETURN count(n) AS c" in
        Alcotest.(check bool) "post-commit read sees the write" true
          (List.exists (fun l -> contains l "2") after));
    case "commit replays buffered updates onto a moved head" (fun () ->
        let shared = Shared.create Graph.empty in
        let a = Service.create shared in
        let b = Service.create shared in
        expect_ok "a begin" (req a ":begin");
        expect_ok "a update" (req a "CREATE (:FromA)");
        (* b commits first: a's pinned base is now stale *)
        expect_ok "b write" (req b "CREATE (:FromB)");
        expect_ok "a commit" (req a ":commit");
        let _, head = Shared.current shared in
        let count label =
          match Cypher_core.Api.run_string head
                  ("MATCH (n:" ^ label ^ ") RETURN n")
          with
          | Ok o -> Cypher_table.Table.row_count o.Cypher_core.Api.table
          | Error _ -> -1
        in
        (* serial order b; a — both effects land *)
        Alcotest.(check int) "b's write survived" 1 (count "FromB");
        Alcotest.(check int) "a's write replayed" 1 (count "FromA"));
    case "nested transactions fold into the outermost commit" (fun () ->
        let shared = Shared.create Graph.empty in
        let a = Service.create shared in
        expect_ok "begin" (req a ":begin");
        expect_ok "outer" (req a "CREATE (:Outer)");
        expect_ok "begin inner" (req a ":begin");
        expect_ok "inner" (req a "CREATE (:Inner)");
        expect_ok "inner commit" (req a ":commit");
        (* nothing is published until the outermost commit *)
        Alcotest.(check int) "head still empty" 0
          (Graph.node_count (snd (Shared.current shared)));
        expect_ok "outer commit" (req a ":commit");
        Alcotest.(check int) "both land at once" 2
          (Graph.node_count (snd (Shared.current shared)));
        Alcotest.(check int) "one version step" 1
          (fst (Shared.current shared)));
    case "rollback publishes nothing and journals nothing" (fun () ->
        let flushed = ref 0 in
        let shared =
          Shared.create ~sink:(fun _ -> incr flushed) Graph.empty
        in
        let a = Service.create shared in
        expect_ok "begin" (req a ":begin");
        expect_ok "update" (req a "CREATE (:Gone)");
        expect_ok "rollback" (req a ":rollback");
        Alcotest.(check int) "head empty" 0
          (Graph.node_count (snd (Shared.current shared)));
        Alcotest.(check int) "sink untouched" 0 !flushed;
        (* the session is reusable afterwards *)
        expect_ok "next write" (req a "CREATE (:Kept)");
        Alcotest.(check int) "later commit lands" 1
          (Graph.node_count (snd (Shared.current shared))));
    case "group commit batches concurrent commits into one flush"
      (fun () ->
        (* a sink that lingers keeps the first leader in flight while
           the other writers enqueue, so the second flush must carry
           the rest of them as one batch *)
        let shared =
          Shared.create ~sink:(fun _ -> Thread.delay 0.05) Graph.empty
        in
        let writers = 8 in
        let threads =
          List.init writers (fun i ->
              Thread.create
                (fun () ->
                  let svc = Service.create shared in
                  ignore
                    (req svc (Printf.sprintf "CREATE (:W {i: %d})" i)))
                ())
        in
        List.iter Thread.join threads;
        let s = Shared.stats shared in
        Alcotest.(check int) "every commit landed" writers s.Shared.commits;
        Alcotest.(check int) "all nodes present" writers
          (Graph.node_count (snd (Shared.current shared)));
        Alcotest.(check bool)
          (Printf.sprintf "flushes (%d) below commits" s.Shared.flushes)
          true
          (s.Shared.flushes < s.Shared.commits);
        Alcotest.(check bool)
          (Printf.sprintf "some batch grouped (max %d)" s.Shared.max_batch)
          true
          (s.Shared.max_batch > 1));
    case "batching off degenerates to one flush per commit" (fun () ->
        let shared = Shared.create ~batching:false
            ~sink:(fun _ -> ()) Graph.empty in
        let threads =
          List.init 4 (fun i ->
              Thread.create
                (fun () ->
                  let svc = Service.create shared in
                  ignore
                    (req svc (Printf.sprintf "CREATE (:W {i: %d})" i)))
                ())
        in
        List.iter Thread.join threads;
        let s = Shared.stats shared in
        Alcotest.(check int) "flush per commit" s.Shared.commits
          s.Shared.flushes;
        Alcotest.(check int) "no grouping" 1 s.Shared.max_batch);
    case "a failing flush rolls back only its batch" (fun () ->
        let poisoned = ref true in
        let sink _ = if !poisoned then failwith "disk full" in
        let shared = Shared.create ~sink Graph.empty in
        let a = Service.create shared in
        expect_err "poisoned commit" (req a "CREATE (:Lost)");
        let s = Shared.stats shared in
        Alcotest.(check int) "flush failure counted" 1
          s.Shared.flush_failures;
        Alcotest.(check int) "nothing committed" 0 s.Shared.commits;
        Alcotest.(check int) "head unchanged" 0
          (Graph.node_count (snd (Shared.current shared)));
        Alcotest.(check int) "version unchanged" 0
          (fst (Shared.current shared));
        (* the connection and the committer both survive the failure *)
        poisoned := false;
        expect_ok "healed commit" (req a "CREATE (:Kept)");
        Alcotest.(check int) "later commit lands" 1
          (Graph.node_count (snd (Shared.current shared))));
    case "a member whose statement fails aborts alone" (fun () ->
        let shared = Shared.create Graph.empty in
        let a = Service.create shared in
        expect_ok "good write" (req a "CREATE (:A {k: 1})");
        (* an execution-time error: the committer must drop this member
           without disturbing the head *)
        expect_err "bad write" (req a "CREATE (:X {k: (1 / 0)})");
        Alcotest.(check int) "head keeps the good write" 1
          (Graph.node_count (snd (Shared.current shared)));
        Alcotest.(check int) "version only bumped once" 1
          (fst (Shared.current shared)));
    case "concurrent snapshot readers overlap a writer cleanly" (fun () ->
        (* tier-1 smoke for the read path: several reader threads pin
           snapshots and re-read them while a writer thread commits;
           every reader must see a monotone, self-consistent count *)
        let shared = Shared.create Graph.empty in
        let stop = ref false in
        let failures = ref [] in
        let lock = Mutex.create () in
        let record_failure m =
          Mutex.lock lock;
          failures := m :: !failures;
          Mutex.unlock lock
        in
        let reader () =
          let svc = Service.create shared in
          while not !stop do
            ignore (req svc ":begin");
            let first = req svc "MATCH (n:W) RETURN count(n) AS c" in
            let second = req svc "MATCH (n:W) RETURN count(n) AS c" in
            if first <> second then
              record_failure
                (Printf.sprintf "snapshot moved: %s vs %s"
                   (String.concat "/" first)
                   (String.concat "/" second));
            ignore (req svc ":rollback")
          done
        in
        let readers = List.init 3 (fun _ -> Thread.create reader ()) in
        let writer = Service.create shared in
        for i = 1 to 20 do
          expect_ok "write" (req writer (Printf.sprintf "CREATE (:W {i: %d})" i))
        done;
        stop := true;
        List.iter Thread.join readers;
        (match !failures with
        | [] -> ()
        | m :: _ -> Alcotest.fail m);
        Alcotest.(check int) "all writes landed" 20
          (Graph.node_count (snd (Shared.current shared))));
  ]

(* ------------------------------------------------------------------ *)
(* TCP front end                                                      *)
(* ------------------------------------------------------------------ *)

let with_server f =
  let shared = Shared.create Graph.empty in
  let server =
    match Server.start ~make_service:(fun () -> Service.create shared) () with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      f shared (Server.port server))

let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let send oc line =
  output_string oc (line ^ "\n");
  flush oc

(* read payload lines until the OK/ERR terminator *)
let rec read_response ic acc =
  let line = input_line ic in
  let starts p =
    String.length line >= String.length p
    && String.sub line 0 (String.length p) = p
  in
  if starts "OK" || starts "ERR" then List.rev (line :: acc)
  else read_response ic (line :: acc)

let tcp_tests =
  [
    case "two TCP clients: isolation and visibility end to end" (fun () ->
        with_server (fun _shared port ->
            let sa, ica, oca = connect port in
            let sb, icb, ocb = connect port in
            Fun.protect
              ~finally:(fun () ->
                (try Unix.close sa with _ -> ());
                try Unix.close sb with _ -> ())
              (fun () ->
                send oca ":ping";
                expect_ok "ping" (read_response ica []);
                (* a opens a tx and writes; b must not see it *)
                send oca ":begin";
                expect_ok "begin" (read_response ica []);
                send oca "CREATE (:T {k: 1})";
                expect_ok "tx write" (read_response ica []);
                send ocb "MATCH (n:T) RETURN count(n) AS c";
                let b_read = read_response icb [] in
                expect_ok "b read" b_read;
                Alcotest.(check bool) "uncommitted write invisible" true
                  (List.exists (fun l -> contains l "0") b_read);
                (* after a commits, b sees it *)
                send oca ":commit";
                expect_ok "commit" (read_response ica []);
                send ocb "MATCH (n:T) RETURN count(n) AS c";
                let b_after = read_response icb [] in
                Alcotest.(check bool) "committed write visible" true
                  (List.exists (fun l -> contains l "1") b_after);
                send oca ":quit";
                expect_ok "quit" (read_response ica []))));
    case "parse errors answer ERR and leave the connection usable"
      (fun () ->
        with_server (fun _shared port ->
            let s, ic, oc = connect port in
            Fun.protect
              ~finally:(fun () -> try Unix.close s with _ -> ())
              (fun () ->
                send oc "MATCH (n RETURN n";
                expect_err "parse error" (read_response ic []);
                send oc "RETURN 1 AS one";
                expect_ok "still alive" (read_response ic []))));
  ]

(* ------------------------------------------------------------------ *)
(* Oracle 9 smoke                                                     *)
(* ------------------------------------------------------------------ *)

let oracle_tests =
  [
    case "oracle 9 smoke: 60 concurrent workloads" (fun () ->
        for i = 0 to 59 do
          let rng = Cypher_fuzz.Rng.make (20260809 + i) in
          let g = Cypher_fuzz.Gen.graph rng in
          let actors = Cypher_fuzz.Gen.actors rng in
          match Cypher_fuzz.Oracles.concurrent g actors with
          | Ok () -> ()
          | Error d -> Alcotest.failf "seed %d: %s" (20260809 + i) d
        done);
  ]

let stats_tests =
  [
    case ":stats reports resident memory where /proc/self/status exists" (fun () ->
        let svc = Service.create (Shared.create Graph.empty) in
        let lines = req svc ":stats" in
        expect_ok ":stats" lines;
        let memory =
          List.filter_map
            (fun l -> Scanf.sscanf_opt l "rss_kb=%d hwm_kb=%d%!" (fun rss hwm -> (rss, hwm)))
            lines
        in
        Alcotest.(check int) "rows count the payload" (List.length lines - 1)
          (Scanf.sscanf (terminator lines) "OK rows=%d" Fun.id);
        if Sys.file_exists "/proc/self/status" then
          match memory with
          | [ (rss, hwm) ] ->
              Alcotest.(check bool)
                (Printf.sprintf "0 < rss %d <= hwm %d" rss hwm)
                true
                (0 < rss && rss <= hwm)
          | _ -> Alcotest.failf "no memory line in %s" (String.concat " / " lines)
        else Alcotest.(check int) "no memory line" 0 (List.length memory));
  ]

let suite = shared_tests @ tcp_tests @ oracle_tests @ stats_tests
