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

(* One grouped round: a holder's commit parks its leader in the first
   sink call; meanwhile three good writers and one whose statement fails
   at execution queue up, so the next leader takes all four as one
   batch.  [fail_grouped] makes the sink fail on that second flush.
   Returns the shared state, the good writers' responses and the bad
   writer's. *)
let grouped_round ~fail_grouped =
  let calls = Atomic.make 0 and released = Atomic.make false in
  let sink _ =
    match Atomic.fetch_and_add calls 1 with
    | 0 ->
        while not (Atomic.get released) do
          Thread.delay 0.001
        done
    | 1 when fail_grouped -> failwith "disk full"
    | _ -> ()
  in
  let shared = Shared.create ~sink Graph.empty in
  let held = ref [] in
  let holder =
    Thread.create (fun () -> held := req (Service.create shared) "CREATE (:H)") ()
  in
  while Atomic.get calls = 0 do
    Thread.delay 0.001
  done;
  let stmts =
    [ "CREATE (:X {k: (1 / 0)})"; "CREATE (:G {i: 1})"; "CREATE (:G {i: 2})";
      "CREATE (:G {i: 3})" ]
  in
  let responses = Array.make (List.length stmts) [] in
  let writers =
    List.mapi
      (fun i stmt ->
        Thread.create
          (fun () -> responses.(i) <- req (Service.create shared) stmt)
          ())
      stmts
  in
  (* the writers only parse and enqueue; give them ample time to queue
     behind the parked leader before releasing it *)
  Thread.delay 0.3;
  Atomic.set released true;
  List.iter Thread.join (holder :: writers);
  expect_ok "holder" !held;
  match Array.to_list responses with
  | bad :: good -> (shared, good, bad)
  | [] -> assert false

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
    case "statements that net to zero but consume ids are journaled" (fun () ->
        let entries = ref [] in
        let shared =
          Shared.create ~sink:(fun es -> entries := !entries @ es) Graph.empty
        in
        let a = Service.create shared in
        let b = Service.create shared in
        let send svc lines = List.iter (fun l -> expect_ok l (req svc l)) lines in
        let zero = "CREATE (n) DELETE n" in
        send a [ zero ];
        (* fast path: the head stays where the transaction pinned it *)
        send a [ ":begin"; zero; ":commit" ];
        (* conflict path: b commits while a's transaction is open *)
        send a [ ":begin"; zero ];
        send b [ "CREATE (:B)" ];
        send a [ ":commit" ];
        send b [ "CREATE (:C)" ];
        let _, head = Shared.current shared in
        match Cypher_storage.Recovery.replay Graph.empty !entries with
        | Error e -> Alcotest.fail e
        | Ok g -> check_same_graph "replayed journal" head g);
    case "a nested rollback on a moved head drops only the inner level" (fun () ->
        let entries = ref [] in
        let shared =
          Shared.create ~sink:(fun es -> entries := !entries @ es) Graph.empty
        in
        let a = Service.create shared in
        let b = Service.create shared in
        expect_ok "begin" (req a ":begin");
        expect_ok "outer" (req a "CREATE (:Outer)");
        expect_ok "begin inner" (req a ":begin");
        expect_ok "inner" (req a "CREATE (:Inner)");
        expect_ok "inner rollback" (req a ":rollback");
        (* b commits first: a's pinned base is now stale *)
        expect_ok "other" (req b "CREATE (:Other)");
        let before = List.length !entries in
        expect_ok "outer commit" (req a ":commit");
        let _, head = Shared.current shared in
        let count label =
          match Cypher_core.Api.run_string head ("MATCH (n:" ^ label ^ ") RETURN n") with
          | Ok o -> Cypher_table.Table.row_count o.Cypher_core.Api.table
          | Error _ -> -1
        in
        Alcotest.(check (list int)) "Other, Outer, no Inner" [ 1; 1; 0 ]
          (List.map count [ "Other"; "Outer"; "Inner" ]);
        Alcotest.(check (list string)) "one entry for the transaction"
          [ "CREATE (:Outer)" ]
          (List.filteri (fun i _ -> i >= before) !entries
          |> List.map (fun e -> e.Session.je_src));
        let stats = req a ":stats" in
        expect_ok ":stats" stats;
        Alcotest.(check bool) "depth=0" true (List.mem "depth=0" stats));
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
    case "a lone committer flushes once per commit" (fun () ->
        (* sequential auto-commits on one connection: each commit finds
           only itself queued, so every round flushes one commit *)
        let shared = Shared.create ~sink:(fun _ -> ()) Graph.empty in
        let svc = Service.create shared in
        for i = 1 to 5 do
          expect_ok "auto-commit" (req svc (Printf.sprintf "CREATE (:W {i: %d})" i))
        done;
        let s = Shared.stats shared in
        Alcotest.(check int) "every commit landed" 5 s.Shared.commits;
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
    case "a failing member of a grouped batch aborts alone" (fun () ->
        let shared, good, bad = grouped_round ~fail_grouped:false in
        List.iter (expect_ok "good writer") good;
        expect_err "bad writer" bad;
        let s = Shared.stats shared in
        Alcotest.(check int) "holder's flush, then one grouped flush" 2
          s.Shared.flushes;
        Alcotest.(check bool)
          (Printf.sprintf "the writers were grouped (max %d)" s.Shared.max_batch)
          true
          (s.Shared.max_batch >= 2);
        let _, head = Shared.current shared in
        Alcotest.(check int) "good writers' nodes" 3 (Graph.label_count head "G");
        Alcotest.(check int) "no bad node" 0 (Graph.label_count head "X");
        Alcotest.(check int) "holder plus good writers" 4
          (Graph.node_count head));
    case "a failing grouped flush rolls back every member" (fun () ->
        let shared, good, bad = grouped_round ~fail_grouped:true in
        List.iter (expect_err "batch member") (bad :: good);
        let s = Shared.stats shared in
        Alcotest.(check int) "one flush failure" 1 s.Shared.flush_failures;
        Alcotest.(check bool)
          (Printf.sprintf "the writers were grouped (max %d)" s.Shared.max_batch)
          true
          (s.Shared.max_batch >= 2);
        Alcotest.(check int) "only the holder committed" 1
          (Graph.node_count (snd (Shared.current shared)));
        expect_ok "later commit" (req (Service.create shared) "CREATE (:G)");
        Alcotest.(check int) "later commit lands" 1
          (Graph.label_count (snd (Shared.current shared)) "G"));
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
(* One compiled statement per request, on the transaction's graph     *)
(* ------------------------------------------------------------------ *)

(* a response without its terminator *)
let payload lines = List.filteri (fun i _ -> i < List.length lines - 1) lines

let label_count shared label = Graph.label_count (snd (Shared.current shared)) label

let tx_tests =
  [
    case "a transaction's updates compile once, live and at replay" (fun () ->
        let shared = Shared.create Graph.empty in
        let a = Service.create shared in
        let b = Service.create shared in
        let cache () = Session.cache_stats (Service.session a) in
        let hits () = (cache ()).Cypher_core.Plan_cache.hits in
        expect_ok "auto-commit" (req a "CREATE (:A)");
        Alcotest.(check int) "one miss" 1 (cache ()).Cypher_core.Plan_cache.misses;
        expect_ok "begin" (req a ":begin");
        let h0 = hits () in
        expect_ok "first update" (req a "CREATE (:A)");
        Alcotest.(check int) "one hit for the first" (h0 + 1) (hits ());
        expect_ok "second update" (req a "CREATE (:A)");
        Alcotest.(check int) "one hit for the second" (h0 + 2) (hits ());
        (* b moves the head, so a's commit replays both updates *)
        expect_ok "b write" (req b "CREATE (:B)");
        expect_ok "commit" (req a ":commit");
        Alcotest.(check int) "the replay looks nothing up" (h0 + 2) (hits ());
        Alcotest.(check (list int)) "3 :A and 1 :B" [ 3; 1 ]
          (List.map (label_count shared) [ "A"; "B" ]));
    case "PROFILE of an update answers alike inside a transaction" (fun () ->
        let shared = Shared.create Graph.empty in
        let a = Service.create shared in
        let auto = req a "PROFILE CREATE (:C)" in
        expect_ok "auto-commit" auto;
        expect_ok "begin" (req a ":begin");
        let inside = req a "PROFILE CREATE (:C)" in
        expect_ok "inside" inside;
        Alcotest.(check (list string)) "same payload" (payload auto) (payload inside);
        expect_ok "commit" (req a ":commit");
        Alcotest.(check int) "both land" 2 (label_count shared "C"));
    case "a transaction reads its own writes past a failed update and a rollback"
      (fun () ->
        let shared = Shared.create Graph.empty in
        let a = Service.create shared in
        (* a count answers exactly like the literal it should equal *)
        let check_count name n =
          Alcotest.(check (list string)) name
            (req a (Printf.sprintf "RETURN %d AS c" n))
            (req a "MATCH (n:A) RETURN count(n) AS c")
        in
        expect_ok "begin" (req a ":begin");
        expect_ok "create" (req a "CREATE (:A)");
        expect_err "SET conflict" (req a "MATCH (a:A) SET a.x = 1, a.x = 2");
        check_count "the failed update changed nothing" 1;
        expect_ok "inner begin" (req a ":begin");
        expect_ok "inner create" (req a "CREATE (:A)");
        check_count "the inner level's write" 2;
        expect_ok "inner rollback" (req a ":rollback");
        check_count "back to the outer level" 1;
        expect_ok "commit" (req a ":commit");
        Alcotest.(check (list string)) "one :A committed, x unset"
          (req a "RETURN 1 AS c")
          (req a "MATCH (n:A) WHERE n.x IS NULL RETURN count(n) AS c"));
    case "a recorded update replays after the plan cache evicted it" (fun () ->
        let shared = Shared.create Graph.empty in
        let config = Cypher_core.Config.(with_plan_cache_capacity 1 revised) in
        let a = Service.create ~config shared in
        let b = Service.create shared in
        expect_ok "begin" (req a ":begin");
        expect_ok "create" (req a "CREATE (:X)");
        expect_ok "evicting read" (req a "MATCH (n) RETURN count(n) AS c");
        Alcotest.(check bool) "evicted" true
          ((Session.cache_stats (Service.session a)).Cypher_core.Plan_cache.evictions
          >= 1);
        expect_ok "b write" (req b "CREATE (:Y)");
        expect_ok "commit" (req a ":commit");
        Alcotest.(check (list int)) ":X lands on the moved head" [ 1; 1 ]
          (List.map (label_count shared) [ "X"; "Y" ]));
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
(* Oracle 8 smoke                                                     *)
(* ------------------------------------------------------------------ *)

let smoke_cases = List.init 60 (fun i -> (20260809 + i, Cypher_fuzz.Gen.case (20260809 + i)))

let oracle_tests =
  [
    case "oracle 8 smoke: 60 concurrent workloads" (fun () ->
        List.iter
          (fun (seed, (c : Cypher_fuzz.Gen.case)) ->
            match Cypher_fuzz.Oracles.concurrent ~schedule:c.schedule c.graph c.actors with
            | Ok () -> ()
            | Error d -> Alcotest.failf "seed %d: %s" seed d)
          smoke_cases);
    case "oracle 8 replays its interleaving and commits on a moved head" (fun () ->
        let run (c : Cypher_fuzz.Gen.case) =
          let shared = Shared.create c.graph in
          let answers = Cypher_fuzz.Oracles.interleave ~schedule:c.schedule shared c.actors in
          (answers, snd (Shared.current shared))
        in
        let version answer = Scanf.sscanf (terminator answer) "OK rows=%_d version=%d" Fun.id in
        let moved = ref 0 in
        List.iter
          (fun (seed, (c : Cypher_fuzz.Gen.case)) ->
            let answers, final = run c in
            let answers', final' = run c in
            if answers <> answers' then Alcotest.failf "seed %d: the answers differ" seed;
            check_same_graph (Printf.sprintf "seed %d" seed) final final';
            List.iteri
              (fun i (a : Cypher_fuzz.Gen.actor) ->
                match (a, answers.(i)) with
                | Tx _, commit :: rest when is_ok commit ->
                    (* answers are newest first: the last is :begin's *)
                    if version commit > version (List.nth rest (List.length rest - 1)) + 1
                    then incr moved
                | _ -> ())
              c.actors)
          smoke_cases;
        Alcotest.(check bool) "some transaction commits on a moved head" true (!moved > 0));
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

let suite = shared_tests @ tx_tests @ tcp_tests @ oracle_tests @ stats_tests
