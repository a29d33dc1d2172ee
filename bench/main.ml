(** Benchmark harness (Bechamel).

    The paper has no performance evaluation — its implementability claim
    is qualitative ("straightforward to implement", Section 7).  These
    benchmarks provide the quantitative characterisation a downstream
    implementor needs (DESIGN.md §6):

    - parser and matcher throughput (substrate costs);
    - legacy vs revised SET and DELETE (the price of atomicity:
      two-phase evaluation with conflict checking);
    - all five proposed MERGE semantics plus legacy MERGE on the paper's
      Example 5 import workload, scaled up (the price of the quotient);
    - the collapsibility quotient in isolation;
    - the paper-figure workloads (E6, E8–E10) as micro-benchmarks;
    - an end-to-end marketplace session.

    Run:  dune exec bench/main.exe
*)

open Bechamel
open Toolkit
open Cypher_graph
open Cypher_ast.Ast
open Cypher_core
open Cypher_paper

let parse_q src =
  match Api.parse ~dialect:Cypher_ast.Validate.Permissive src with
  | Ok q -> q
  | Error e -> failwith (Errors.to_string e)

(* The baseline entries are pinned to disabled counter collection, so
   their numbers stay comparable across the introduction of the
   observability layer (the pinned BENCH_results.json predates it); the
   stats=on variants are recorded side by side under .../stats=on
   names. *)
let pin c = Config.with_stats false c
let cfg_cypher9 = pin Config.cypher9
let cfg_revised = pin Config.revised
let cfg_permissive = pin Config.permissive

(* enabled-collection variant: quantifies what the counters cost when
   they are on, i.e. the diff of each statement's input and output
   graphs (Stats.diff) *)
let cfg_revised_stats = Config.with_stats true cfg_revised

(* what the host offers, recorded in the JSON meta *)
let effective_domains = Cypher_util.Pool.recommended ()

(* a parsed statement runs as its printed text, the one way statements
   enter the engine: each run pays print, parse and validate on top of
   the execution *)
let run_q config g q =
  match Api.run_string ~config g (Cypher_ast.Pretty.query_to_string q) with
  | Ok o -> o
  | Error e -> failwith (Errors.to_string e)

(* ------------------------------------------------------------------ *)
(* --footprint DIR: what the opened store holds, field by field       *)
(* ------------------------------------------------------------------ *)

(** [live_words ()] is the major-heap live set after a full collection
    — an actual footprint, not a cumulative allocation counter. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

module Store = Cypher_storage.Store

let open_store dir =
  match Store.open_db ~config:Config.revised dir with
  | Ok x -> x
  | Error m -> failwith ("--footprint: " ^ m)

(* a kB field of /proc/self/status ([VmHWM], this process's peak
   resident set, or [VmRSS], its current one); [None] where that file
   is absent *)
let vm_kb field =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun l ->
          Option.join (Scanf.sscanf_opt l "%s@: %d kB" (fun f kb -> if f = field then Some kb else None)))
        (String.split_on_char '\n' status)

(** Opens the store at [dir] and prints [Graph.footprint] of its graph,
    the process's live heap and the open's peak: the major heap's
    high-water mark ([top_heap_words]) and [VmHWM], before and after
    [open_db]; then [VmRSS] after one [Gc.full_major ()], which is what
    [cypher_server] holds when it starts listening; then the sizes of
    the two files the open read and the image's bytes per entity.  A
    missing [dir] first gets the wire benchmark's store (seed 1), built
    as bench/load does: bulk load, [Person(pid)] and [Post(postid)]
    indexes, compaction.  Building sets both peaks, so the open's peak is then
    not reported: run again on [dir]. *)
let footprint dir =
  let built = not (Sys.file_exists dir) in
  if built then begin
    let store, session = open_store dir in
    let nodes, rels = Dataset.csv (Dataset.generate Dataset.full 1) in
    (match Cypher_storage.Bulk.load_strings session ~nodes ~rels with
    | Ok _ -> ()
    | Error e -> failwith (Errors.to_string e));
    Session.register_prop_index session ~label:"Person" ~key:"pid";
    Session.register_prop_index session ~label:"Post" ~key:"postid";
    (match Store.compact store session with Ok () -> () | Error m -> failwith m);
    Store.close store;
    Gc.compact ()
  end;
  (* the files as the open finds them *)
  let size file =
    let path = Filename.concat dir file in
    if Sys.file_exists path then Some (Unix.stat path).Unix.st_size else None
  in
  let image = size "snapshot.cy" and journal = size "journal.wal" in
  let w0 = live_words () in
  let top0 = (Gc.quick_stat ()).Gc.top_heap_words and hwm0 = vm_kb "VmHWM" in
  let store, session = open_store dir in
  let top1 = (Gc.quick_stat ()).Gc.top_heap_words and hwm1 = vm_kb "VmHWM" in
  let live = live_words () - w0 in
  let rss = vm_kb "VmRSS" in
  let g = Session.graph session in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  Printf.printf "%d nodes, %d relationships\n" (Graph.node_count g) (Graph.rel_count g);
  Printf.printf "%-20s %12s %9s\n" "field" "words" "MB";
  List.iter
    (fun (field, words) -> Printf.printf "%-20s %12d %9.2f\n" field words (mb words))
    (Graph.footprint g);
  Printf.printf "%-20s %12d %9.2f\n" "heap growth" live (mb live);
  if built then
    print_endline "open peak: not measured, the store was built in this process; run again on DIR"
  else begin
    let kb = function Some k -> Printf.sprintf "%.2f MB" (float_of_int k /. 1024.) | None -> "n/a" in
    Printf.printf "open peak: top heap %d -> %d words (%.2f -> %.2f MB), VmHWM %s -> %s\n" top0
      top1 (mb top0) (mb top1) (kb hwm0) (kb hwm1);
    Printf.printf "after Gc.full_major: VmRSS %s\n" (kb rss)
  end;
  let bytes = function Some n -> Printf.sprintf "%d bytes" n | None -> "absent" in
  Printf.printf "snapshot.cy: %s" (bytes image);
  (match (image, Graph.node_count g + Graph.rel_count g) with
  | Some n, entities when entities > 0 ->
      Printf.printf ", %.1f bytes per entity" (float_of_int n /. float_of_int entities)
  | _ -> ());
  Printf.printf "\njournal.wal: %s\n" (bytes journal);
  Store.close store

(* ------------------------------------------------------------------ *)
(* Fixtures shared by the benches                                     *)
(* ------------------------------------------------------------------ *)

(* Every fixture that costs more than a parse is lazy: an entry forces
   the ones it reads when it is selected (see [t] below), so [--only E]
   and [--check-overhead] build what their entries use and nothing
   else, and no fixture is ever built inside a timed closure. *)

let market100 =
  lazy (Fixtures.marketplace_graph ~vendors:5 ~products:30 ~users:65 ~orders_per_user:3)

let market1000 =
  lazy (Fixtures.marketplace_graph ~vendors:20 ~products:300 ~users:680 ~orders_per_user:3)

(* 10^4 nodes, 23.4k relationships: construction at a size where the
   graph outgrows the minor heap *)
let market10k =
  lazy (Fixtures.marketplace_graph ~vendors:200 ~products:3000 ~users:6800 ~orders_per_user:3)

let orders100 = lazy (Fixtures.orders_table 100)
let orders1000 = lazy (Fixtures.orders_table 1000)

let q_read = parse_q Fixtures.query1
let q_2hop =
  parse_q
    "MATCH (u:User)-[:ORDERED]->(p:Product)<-[:OFFERS]-(v:Vendor) RETURN \
     count(*) AS n"
let q_1hop = parse_q "MATCH (u:User)-[:ORDERED]->(p:Product) RETURN count(*) AS n"

(* the same 2-hop shape, but count(p) instead of the bare count-star:
   the star form takes the matcher's counting leaf, while count(p)
   reads a column, so every embedding is built as a row and folded
   into the accumulator *)
let q_2hop_rows =
  parse_q
    "MATCH (u:User)-[:ORDERED]->(p:Product)<-[:OFFERS]-(v:Vendor) RETURN \
     count(p) AS n"

(* an unbounded undirected shortestPath between the first and last user
   of the tier-5 fixture (User ids are 100000+k), 8 hops apart.  The two
   unindexed endpoint lookups scan the 68k users and take nearly all of
   the time; the search itself is about a millisecond *)
let q_sp =
  parse_q
    "MATCH (a:User {id: 100000}), (b:User {id: 167999}) RETURN \
     length(shortestPath((a)-[*]-(b))) AS l"

(* the analytic scan: a label scan, a WHERE over every user, a grouped
   count, ORDER BY on the aggregate and LIMIT — folded straight into
   per-group accumulators, no driving table *)
let q_scan_group =
  parse_q
    "MATCH (u:User) WHERE u.id % 7 > 2 RETURN u.id % 10 AS bucket, count(*) AS n \
     ORDER BY n DESC, bucket LIMIT 5"

(* point lookup: one user out of 680, by property equality *)
let q_point = parse_q "MATCH (u:User {id: 100042}) RETURN u.name AS name"
let market1000_indexed =
  lazy (Graph.add_prop_index ~label:"User" ~key:"id" (Lazy.force market1000))

(* prepared statements and the session plan cache --------------------- *)

module Smap = Cypher_util.Maps.Smap

(* the point lookup again, parameterized: the hot shape of an OLTP
   workload — one statement text, many bindings *)
let param_src = "MATCH (u:User {id: $uid}) RETURN u.name AS name"
let uid_params = Smap.add "uid" (Value.Int 100042) Smap.empty

(* a parse-heavy but execution-trivial statement (no :A nodes exist):
   the hit/miss pair isolates what the statement cache saves in lexing,
   parsing, validation and planning *)
let parse_heavy_src =
  "MATCH (a:A)-[r:T*1..3]->(b) WHERE a.x > $k AND b.name STARTS WITH 'p' \
   WITH a, count(*) AS n ORDER BY n DESC LIMIT 10 RETURN a, n"

let bench_session ~capacity g params =
  let config =
    Config.with_plan_cache_capacity capacity (Config.with_params params cfg_revised)
  in
  Session.create ~config g

let warm session src =
  (match Session.run session src with
  | Ok _ -> ()
  | Error e -> failwith (Errors.to_string e));
  session

let k_params = Smap.add "k" (Value.Int 1) Smap.empty

(* two real user ids, alternated so every execution rebinds *)
let rebind_flip = ref false

let merge_src = Fixtures.example5_merge

(* SET workload: 100 products, bump every id — legacy vs atomic *)
let set_graph =
  lazy (Fixtures.marketplace_graph ~vendors:2 ~products:100 ~users:2 ~orders_per_user:1)
let q_set = parse_q "MATCH (p:Product) SET p.id = p.id + 1"

(* DELETE workload *)
let q_delete = parse_q "MATCH (u:User) DETACH DELETE u"

(* statements for the parser bench *)
let src_read = Fixtures.query1
let src_update =
  "MATCH (u:User {id: 89}) CREATE (u)-[:ORDERED]->(p:Product {id: 1, name: \
   'x'}) SET p.seen = true"
let src_mixed =
  "MATCH (a:A)-[r:T*1..3]->(b) WHERE a.x > 1 AND b.name STARTS WITH 'p' WITH \
   a, count(*) AS n ORDER BY n DESC LIMIT 10 MERGE ALL (a)-[:SEEN]->(:Log \
   {n: n}) RETURN a, n"

(* quotient in isolation: a pre-built graph of k collapsible nodes *)
let quotient_input k =
  let g, new_nodes =
    List.fold_left
      (fun (g, acc) i ->
        let id, g =
          Graph.create_node ~labels:[ "N" ]
            ~props:(Props.of_list [ ("v", Value.Int (i mod 10)) ])
            g
        in
        (g, (id, (0, 0)) :: acc))
      (Graph.empty, [])
      (List.init k (fun i -> i))
  in
  (g, new_nodes)

let session_src =
  "MATCH (u:User)-[:ORDERED]->(p:Product) WHERE u.id % 7 = 0 SET p.hot = \
   true WITH u, count(*) AS n MERGE ALL (u)-[:SCORED]->(:Score {v: n}) \
   RETURN count(*) AS total"

let q_session = parse_q session_src

(* projection/filter workload for the row-mapping path: no graph
   access at all, pure per-row expression work *)
let q_project =
  parse_q
    "UNWIND range(1, 5000) AS x WITH x, x * x AS y WHERE y % 3 = 0 RETURN \
     count(*) AS n"

(* durability fixtures: a statement journal of 50 CREATEs captured
   through a real journaling session (so the recorded counter checksums
   are exact), plus a snapshot image of the 100-node marketplace *)
module Wal = Cypher_storage.Wal
module Snapshot = Cypher_storage.Snapshot
module Recovery = Cypher_storage.Recovery

let wal_record =
  {
    Session.je_src = "MATCH (u:User {id: 100007}) SET u.seen = true";
    je_stats = { Stats.empty with Stats.props_set = 1 };
    je_config = Config.revised;
    je_kind = `Statement;
  }

let wal_bytes_50 () =
  let buf = Buffer.create 4096 in
  let session = Session.create ~config:Config.revised Graph.empty in
  Session.set_journal session
    (Some (List.iter (fun e -> Buffer.add_string buf (Wal.encode e))));
  for i = 1 to 50 do
    match
      Session.run session
        (Printf.sprintf "CREATE (:A {v: %d})-[:T]->(:B {v: %d})" i (i * 2))
    with
    | Ok _ -> ()
    | Error e -> failwith (Errors.to_string e)
  done;
  Buffer.contents buf

(* [g] as the bulk loader's two CSV images; the [id] property, whose
   column name the loader reserves, goes under [pid] *)
let bulk_csvs g =
  let nodes = Buffer.create (1 lsl 20) and rels = Buffer.create (1 lsl 20) in
  Buffer.add_string nodes "id,labels,name,pid\n";
  List.iter
    (fun (n : Graph.node) ->
      let prop k = Value.to_string (Props.get n.Graph.n_props k) in
      Printf.bprintf nodes "%d,%s,%s,%s\n" n.Graph.n_id
        (String.concat ";" (Cypher_util.Maps.Sset.elements n.Graph.labels))
        (prop "name") (prop "id"))
    (Graph.nodes g);
  Buffer.add_string rels "src,tgt,type\n";
  List.iter
    (fun (r : Graph.rel) ->
      Printf.bprintf rels "%d,%d,%s\n" r.Graph.src r.Graph.tgt r.Graph.r_type)
    (Graph.rels g);
  (Buffer.contents nodes, Buffer.contents rels)

let bench_tmp suffix =
  let path = Filename.temp_file "cypher_bench" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* an open journal writer per durability regime; the file grows over
   the bench run, but appends are O(record), not O(file) *)
let wal_writer durability = Wal.open_writer ~durability (bench_tmp ".wal")

(* ------------------------------------------------------------------ *)
(* Test registry                                                      *)
(* ------------------------------------------------------------------ *)

(* [t name setup] registers an entry.  [setup ()] forces the fixtures
   the entry reads and returns the timed closure; it runs when the entry
   is selected, before Bechamel starts timing. *)
let t name setup = (name, fun () -> Test.make ~name (Staged.stage (setup ())))

(* the common shape: one parsed query run against one fixture graph *)
let query name config graph q =
  t name (fun () ->
      let g = Lazy.force graph in
      fun () -> Sys.opaque_identity (run_q config g q))

let merge_entry name ?(config = cfg_permissive) mode table =
  t name (fun () ->
      let table = Lazy.force table in
      fun () ->
        Sys.opaque_identity
          (fst (Runner.run_merge_mode config ~mode merge_src (Graph.empty, table))))

let tests =
  [
    (* parse/* *)
    t "parse/read" (fun () () -> Sys.opaque_identity (parse_q src_read));
    t "parse/update" (fun () () -> Sys.opaque_identity (parse_q src_update));
    t "parse/mixed" (fun () () -> Sys.opaque_identity (parse_q src_mixed));
    (* match/* *)
    query "match/1hop/n=100" cfg_revised market100 q_1hop;
    query "match/1hop/n=1000" cfg_revised market1000 q_1hop;
    query "match/2hop/n=100" cfg_revised market100 q_2hop;
    query "match/2hop/n=1000" cfg_revised market1000 q_2hop;
    (* ablation: same workload with cost-guided planning disabled —
       naive left-to-right anchoring on the 680-user label bucket *)
    query "match/2hop/n=1000/planner-off"
      (Config.with_planner Config.Off cfg_revised)
      market1000 q_2hop;
    (* point lookup: label scan vs registered property index *)
    query "match/point/label-scan" cfg_revised market1000 q_point;
    query "match/point/prop-index" cfg_revised market1000_indexed q_point;
    (* prepared statements and the session plan cache: a warm session
       serves repeat statements from the LRU (no lexing, parsing,
       validation or planning); capacity 0 recompiles every time *)
    t "parse/prepared-hit" (fun () ->
        let s = warm (bench_session ~capacity:128 Graph.empty k_params) parse_heavy_src in
        fun () -> Sys.opaque_identity (Session.run s parse_heavy_src));
    t "parse/prepared-miss" (fun () ->
        let s = bench_session ~capacity:0 Graph.empty k_params in
        fun () -> Sys.opaque_identity (Session.run s parse_heavy_src));
    t "plan-cache/hit" (fun () ->
        let s =
          warm (bench_session ~capacity:128 (Lazy.force market1000_indexed) uid_params) param_src
        in
        fun () -> Sys.opaque_identity (Session.run s param_src));
    t "plan-cache/miss" (fun () ->
        let s = bench_session ~capacity:0 (Lazy.force market1000_indexed) uid_params in
        fun () -> Sys.opaque_identity (Session.run s param_src));
    (* the prepared API itself: rebinding a fresh parameter map per
       execution vs re-running the statement text from scratch *)
    t "execute/param-rebind" (fun () ->
        let p =
          match Api.prepare ~config:cfg_revised param_src with
          | Ok p -> p
          | Error e -> failwith (Errors.to_string e)
        in
        let g = Lazy.force market1000_indexed in
        fun () ->
          rebind_flip := not !rebind_flip;
          let uid = if !rebind_flip then 100042 else 100043 in
          Sys.opaque_identity (Api.execute p (Smap.add "uid" (Value.Int uid) Smap.empty) g));
    t "execute/run-string" (fun () ->
        let g = Lazy.force market1000_indexed in
        fun () ->
          rebind_flip := not !rebind_flip;
          let uid = if !rebind_flip then 100042 else 100043 in
          Sys.opaque_identity
            (Api.run_string
               ~config:(Config.with_params (Smap.add "uid" (Value.Int uid) Smap.empty) cfg_revised)
               g param_src));
    query "match/figure1-query1" cfg_revised (Lazy.from_val Fixtures.figure1_graph) q_read;
    (* ablation: homomorphic matching drops the used-relationship
       bookkeeping but enumerates more embeddings *)
    query "match/homo/2hop/n=100"
      (Config.with_match_mode Config.Homomorphic cfg_revised)
      market100 q_2hop;
    (* create/* *)
    t "create/100-paths" (fun () () ->
        Sys.opaque_identity
          (run_q cfg_revised Graph.empty
             (parse_q "UNWIND range(1, 100) AS x CREATE (:A {v: x})-[:T]->(:B)")));
    (* set/* : the price of atomicity *)
    query "set/legacy/100" cfg_cypher9 set_graph q_set;
    query "set/atomic/100" cfg_revised set_graph q_set;
    (* delete/* *)
    query "delete/legacy/detach" cfg_cypher9 market100 q_delete;
    query "delete/atomic/detach" cfg_revised market100 q_delete;
    (* stats/* : the same update workloads with counter collection
       enabled — the marginal cost of recording and finalizing *)
    query "set/atomic/100/stats=on" cfg_revised_stats set_graph q_set;
    t "create/100-paths/stats=on" (fun () () ->
        Sys.opaque_identity
          (run_q cfg_revised_stats Graph.empty
             (parse_q "UNWIND range(1, 100) AS x CREATE (:A {v: x})-[:T]->(:B)")));
    query "delete/atomic/detach/stats=on" cfg_revised_stats market100 q_delete;
    (* merge/<variant> on the Example-5 import workload *)
    merge_entry "merge/legacy/100" ~config:cfg_cypher9 Merge_legacy orders100;
    merge_entry "merge/all/100" Merge_all orders100;
    merge_entry "merge/grouping/100" Merge_grouping orders100;
    merge_entry "merge/weak/100" Merge_weak_collapse orders100;
    merge_entry "merge/collapse/100" Merge_collapse orders100;
    merge_entry "merge/same/100" Merge_same orders100;
    merge_entry "merge/all/1000" Merge_all orders1000;
    merge_entry "merge/same/1000" Merge_same orders1000;
    (* quotient/* *)
    t "quotient/300-nodes" (fun () ->
        let g, new_nodes = quotient_input 300 in
        fun () ->
          Sys.opaque_identity
            (Quotient.apply g ~new_nodes ~new_rels:[] ~node_pos_matters:false
               ~rel_pos_matters:false));
    (* project/* : UNWIND + WITH...WHERE row mapping *)
    query "project/unwind-filter/n=5000" cfg_revised (Lazy.from_val Graph.empty) q_project;
    (* endtoend/* *)
    query "endtoend/session/n=100" cfg_revised market100 q_session;
    (* io/* : dump and reload the 100-node marketplace *)
    t "io/dump/n=100" (fun () ->
        let g = Lazy.force market100 in
        fun () -> Sys.opaque_identity (Dump.to_cypher g));
    t "io/load/n=100" (fun () ->
        let script = Dump.to_cypher (Lazy.force market100) in
        fun () -> Sys.opaque_identity (Api.run_program ~config:cfg_revised Graph.empty script));
    (* the same script decoded, as snapshot loading does *)
    t "io/decode/n=100" (fun () ->
        let script = Dump.to_cypher (Lazy.force market100) in
        fun () -> Sys.opaque_identity (Dump.of_cypher Graph.empty script));
    t "io/decode/n=1e4" (fun () ->
        let script = Dump.to_cypher (Lazy.force market10k) in
        fun () -> Sys.opaque_identity (Dump.of_cypher Graph.empty script));
    (* what opening a store runs on its snapshot: the CRC, the index
       lines and the decode, onto two registered property indexes *)
    t "io/open/n=1e4" (fun () ->
        let image =
          Snapshot.to_string
            (Lazy.force market10k
            |> Graph.add_prop_index ~label:"User" ~key:"id"
            |> Graph.add_prop_index ~label:"Product" ~key:"id")
        in
        fun () -> Sys.opaque_identity (Snapshot.parse image));
    (* the graph construction alone that decoding and bulk frames end
       in, on an empty graph with two registered property indexes *)
    t "io/add-batch/n=1e4" (fun () ->
        let g = Lazy.force market10k in
        let base =
          Graph.empty
          |> Graph.add_prop_index ~label:"User" ~key:"id"
          |> Graph.add_prop_index ~label:"Product" ~key:"id"
        and nodes = Array.of_list (Graph.nodes g)
        and rels = Array.of_list (Graph.rels g) in
        fun () -> Sys.opaque_identity (Graph.add_batch base nodes rels));
    (* the same graph as CSV through the bulk loader, in memory *)
    t "io/bulk/n=1e4" (fun () ->
        let nodes, rels = bulk_csvs (Lazy.force market10k) in
        let load () =
          Cypher_storage.Bulk.load_strings
            (Session.create ~config:cfg_revised Graph.empty)
            ~nodes ~rels
        in
        (* a refused load would time the validator alone *)
        (match load () with Ok _ -> () | Error e -> failwith (Errors.to_string e));
        fun () -> Sys.opaque_identity (load ()));
    (* io/* durability: journal append under both regimes, atomic
       snapshot write (tmp + fsync + rename), and full crash recovery
       (journal scan + checked replay, in memory) *)
    t "io/wal-append/buffered" (fun () ->
        let w = wal_writer Config.Buffered in
        fun () -> Sys.opaque_identity (Wal.append w [ wal_record ]));
    t "io/wal-append/fsync" (fun () ->
        let w = wal_writer Config.Fsync in
        fun () -> Sys.opaque_identity (Wal.append w [ wal_record ]));
    t "io/snapshot-write/n=100" (fun () ->
        let path = bench_tmp ".cy" and g = Lazy.force market100 in
        fun () -> Sys.opaque_identity (Snapshot.write path g));
    t "io/recover/journal-50" (fun () ->
        let wal = wal_bytes_50 () in
        fun () -> Sys.opaque_identity (Recovery.recover_strings ~wal ()));
    t "io/recover/snapshot+journal" (fun () ->
        let snapshot = Snapshot.to_string (Lazy.force market100) and wal = wal_bytes_50 () in
        fun () -> Sys.opaque_identity (Recovery.recover_strings ~snapshot ~wal ()));
    (* figures/* : the paper's exact workloads *)
    t "figures/E6-legacy-merge" (fun () () ->
        Sys.opaque_identity
          (Runner.run_merge_mode cfg_cypher9 ~mode:Merge_legacy
             Fixtures.example3_merge
             (Fixtures.example3_graph, Fixtures.example3_table)));
    t "figures/E8-merge-same" (fun () () ->
        Sys.opaque_identity
          (Runner.run_merge_mode cfg_permissive ~mode:Merge_same
             Fixtures.example5_merge
             (Graph.empty, Fixtures.example5_table)));
    t "figures/E9-merge-collapse" (fun () () ->
        Sys.opaque_identity
          (Runner.run_merge_mode cfg_permissive ~mode:Merge_collapse
             Fixtures.example6_merge
             (Graph.empty, Fixtures.example6_table)));
    t "figures/E10-merge-same" (fun () () ->
        Sys.opaque_identity
          (Runner.run_merge_mode cfg_permissive ~mode:Merge_same
             Fixtures.example7_merge
             (Fixtures.example7_graph, Fixtures.example7_table)));
  ]

(* ------------------------------------------------------------------ *)
(* Tier 5: n = 10^5 nodes                                              *)
(* ------------------------------------------------------------------ *)

let pretty_time ns =
  if ns >= 1e9 then Printf.sprintf "%10.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%10.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%10.2f us" (ns /. 1e3)
  else Printf.sprintf "%10.2f ns" ns

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** Median wall-clock seconds of [reps] runs of [f], each preceded by a
    heap compaction so every run starts from the same GC state.  Used
    for the large tiers instead of Bechamel: a 0.2–3 s run yields only
    one or two OLS samples, and by that point in the suite the
    accumulated heap makes any single sample hostage to a major
    collection — the median of a few controlled one-shots is the
    honest estimate at this scale. *)
let median_time ?(reps = 5) f =
  let samples =
    List.init reps (fun _ ->
        Gc.compact ();
        snd (timed f))
  in
  List.nth (List.sort compare samples) (reps / 2)

let tier5_cases =
  [
    ("match/1hop/n=1e5", q_1hop);
    ("match/2hop/n=1e5", q_2hop);
    (* reads a column, so the counting leaf does not apply *)
    ("match/2hop-rows/n=1e5", q_2hop_rows);
    ("shortestpath/n=1e5", q_sp);
    ("aggregate/scan-where-group/n=1e5", q_scan_group);
  ]

(** Times the 10^5-node tier (100k nodes, 234k rels): 1-hop and 2-hop
    MATCH, a scan + WHERE + grouped count and a shortestPath across the
    graph — the [only] entries, by default all of them — as one-shot
    medians (see {!median_time}), measured here, before the Bechamel
    loop grows the heap.  Run on demand — after argument parsing — so
    [--check-overhead] never pays for it.  Returns ready-made result
    entries plus meta facts (fixture size, heap footprint of the
    persistent maps). *)
let tier5 ?(only = List.map fst tier5_cases) () =
  let w0 = live_words () in
  let g =
    Fixtures.marketplace_graph ~vendors:2000 ~products:30000 ~users:68000
      ~orders_per_user:3
  in
  let graph_words = live_words () - w0 in
  let entries =
    List.map
      (fun (name, q) ->
        let s =
          median_time (fun () -> Sys.opaque_identity (run_q cfg_revised g q))
        in
        Printf.printf "%-32s %13s   (median of 5)\n%!" name
          (pretty_time (s *. 1e9));
        (name, Some (s *. 1e9)))
      (List.filter (fun (name, _) -> List.mem name only) tier5_cases)
  in
  let meta =
    [
      ("tier5_nodes", string_of_int (Graph.node_count g));
      ("tier5_rels", string_of_int (Graph.rel_count g));
      ("tier5_graph_live_words", string_of_int graph_words);
    ]
  in
  (entries, meta)

(* ------------------------------------------------------------------ *)
(* Tier 6 (--large): n = 10^6, bulk load + one-shot MATCH             *)
(* ------------------------------------------------------------------ *)

module Bulk = Cypher_storage.Bulk

(** Synthesises the 10^6-node marketplace as two CSV strings: exactly
    1e6 node rows (20k vendors, 280k products, 700k users) and 1e6 rel
    rows (280k OFFERS + 720k ORDERED), the same 2-hop shape as the
    small fixtures. *)
let large_csvs () =
  let vendors = 20_000 and products = 280_000 and users = 700_000 in
  let nodes = Buffer.create (1 lsl 24) in
  Buffer.add_string nodes "id,labels,name\n";
  for k = 0 to vendors - 1 do
    Buffer.add_string nodes (Printf.sprintf "v%d,Vendor,vendor%d\n" k k)
  done;
  for k = 0 to products - 1 do
    Buffer.add_string nodes (Printf.sprintf "p%d,Product,product%d\n" k k)
  done;
  for k = 0 to users - 1 do
    Buffer.add_string nodes (Printf.sprintf "u%d,User,user%d\n" k k)
  done;
  let rels = Buffer.create (1 lsl 24) in
  Buffer.add_string rels "src,tgt,type\n";
  for k = 0 to products - 1 do
    Buffer.add_string rels (Printf.sprintf "v%d,p%d,OFFERS\n" (k mod vendors) k)
  done;
  let ordered = 1_000_000 - products in
  for k = 0 to ordered - 1 do
    Buffer.add_string rels
      (Printf.sprintf "u%d,p%d,ORDERED\n" (k mod users) (k mod products))
  done;
  (Buffer.contents nodes, Buffer.contents rels)

(** One-shot timings at n = 10^6: bulk load (in-memory session —
    journal throughput has its own io/* entries), then the 2-hop count
    on the loaded graph.  Single runs, wall clock: at this scale a run
    takes seconds, which Bechamel's quota would multiply needlessly.
    Returns meta pairs for the JSON block. *)
let run_large () =
  Printf.printf "\n-- tier 6 (--large): n=1e6 one-shot timings --\n%!";
  let (nodes, rels), gen_s = timed large_csvs in
  let session = Session.create ~config:cfg_revised Graph.empty in
  let w0 = live_words () in
  let report, load_s =
    timed (fun () ->
        match Bulk.load_strings session ~nodes ~rels with
        | Ok r -> r
        | Error e -> failwith (Errors.to_string e))
  in
  let graph_words = live_words () - w0 in
  let g = Session.graph session in
  Printf.printf "bulk-load/n=1e6: %d nodes + %d rels in %.2f s (csv gen %.2f s)\n%!"
    report.Bulk.nodes_created report.Bulk.rels_created load_s gen_s;
  Printf.printf "graph footprint: %d live words (%.1f MB)\n%!" graph_words
    (float_of_int (graph_words * 8) /. 1e6);
  let _, persistent_s = timed (fun () -> run_q cfg_revised g q_2hop) in
  Printf.printf "match/2hop/n=1e6: %.3f s\n%!" persistent_s;
  [
    ("large_nodes", string_of_int report.Bulk.nodes_created);
    ("large_rels", string_of_int report.Bulk.rels_created);
    ("large_bulk_load_s", Printf.sprintf "%.3f" load_s);
    ("large_graph_live_words", string_of_int graph_words);
    ("large_2hop_persistent_s", Printf.sprintf "%.3f" persistent_s);
  ]

(* ------------------------------------------------------------------ *)
(* Runner and report                                                  *)
(* ------------------------------------------------------------------ *)

let benchmark test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  Analyze.all ols Instance.monotonic_clock raw

(** Runs one test, returning (name, ns/run); [None] estimate when the
    OLS fit failed. *)
let run_test test : (string * float option) list =
  let results = benchmark test in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Some est
        | _ -> None
      in
      (name, est) :: acc)
    results []

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Writes the results as a JSON object with a provenance block:

    {v
    { "meta": { "git_sha": ..., "effective_domains": ..., "units": "ns" },
      "results": { "<bench name>": <ns/run>, ... } }
    v}

    machine-readable so the perf trajectory is trackable across changes
    (EXPERIMENTS.md).  [effective_domains] is what the machine offers;
    [extra] carries tier-specific facts (fixture sizes, heap
    footprints, one-shot large-scale timings). *)
let write_json ~sha ~extra path results =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"meta\": {\n";
  Printf.fprintf oc "    \"git_sha\": \"%s\",\n" (json_escape sha);
  Printf.fprintf oc "    \"effective_domains\": %d,\n" effective_domains;
  List.iter
    (fun (k, v) -> Printf.fprintf oc "    \"%s\": %s,\n" (json_escape k) v)
    extra;
  Printf.fprintf oc "    \"units\": \"ns\"\n";
  Printf.fprintf oc "  },\n";
  output_string oc "  \"results\": {\n";
  let kept = List.filter (fun (_, est) -> est <> None) results in
  List.iteri
    (fun i (name, est) ->
      let ns = match est with Some ns -> ns | None -> assert false in
      Printf.fprintf oc "    \"%s\": %.2f%s\n" (json_escape name) ns
        (if i = List.length kept - 1 then "" else ","))
    kept;
  output_string oc "  }\n";
  output_string oc "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* --check-overhead: disabled-stats regression gate                    *)
(* ------------------------------------------------------------------ *)

(** Reads the ["results"] section of a pinned BENCH_results.json.
    Hand-rolled line scan — the file is written by {!write_json}, one
    ["name": number] pair per line. *)
let load_pinned path =
  let ic = open_in path in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '"' with
       | None -> ()
       | Some i -> (
           match String.index_from_opt line (i + 1) '"' with
           | None -> ()
           | Some j -> (
               let name = String.sub line (i + 1) (j - i - 1) in
               let rest =
                 String.sub line (j + 1) (String.length line - j - 1)
               in
               try Scanf.sscanf rest ": %f" (fun v -> Hashtbl.replace tbl name v)
               with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()))
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* the update-path entries: every one runs with collection disabled,
   which skips the counters' diff, so their ratio against the pinned
   pre-observability numbers is what the counters cost when off.  The
   two read-path entries at the end hold the row pipeline (match
   expansion, UNWIND and projection over slot rows) to the same
   budget *)
let overhead_subset =
  [
    "set/legacy/100";
    "set/atomic/100";
    "delete/legacy/detach";
    "delete/atomic/detach";
    "create/100-paths";
    "merge/all/100";
    "endtoend/session/n=100";
    "match/2hop/n=1000";
    "project/unwind-filter/n=5000";
  ]

(** Re-times the update benches (stats collection disabled, as the
    baseline entries always are) and compares against the pinned
    numbers.  Passes when the geometric-mean slowdown is under
    [threshold]; individual entries are reported but not gated (single
    benches wobble more than the mean).

    Each entry is re-timed three times and the *fastest* run compared:
    the minimum is the noise-robust location statistic for
    microbenchmarks — a real regression in the timed code shifts the
    minimum, while host scheduling phases (this container wanders
    ±30% on a scale of tens of seconds) only inflate individual runs. *)
let check_overhead ~threshold pinned_path =
  let pinned = load_pinned pinned_path in
  Printf.printf "disabled-stats overhead vs %s (gate: geomean < %+.1f%%)\n\n"
    pinned_path ((threshold -. 1.) *. 100.);
  Printf.printf "%-28s %13s %13s %8s\n" "benchmark" "pinned" "now" "ratio";
  Printf.printf "%s\n" (String.make 66 '-');
  let ratios =
    List.filter_map
      (fun name ->
        match (List.assoc_opt name tests, Hashtbl.find_opt pinned name) with
        | None, _ | _, None ->
            Printf.printf "%-28s %13s\n" name "(no baseline)";
            None
        | Some make, Some base -> (
            let test = make () in
            let estimates =
              List.concat_map
                (fun _ ->
                  match run_test test with
                  | [ (_, Some now) ] -> [ now ]
                  | _ -> [])
                [ 1; 2; 3 ]
            in
            match estimates with
            | [] ->
                Printf.printf "%-28s %13s\n" name "(no estimate)";
                None
            | e :: es ->
                let now = List.fold_left min e es in
                let r = now /. base in
                Printf.printf "%-28s %13s %13s %7.3fx\n%!" name
                  (pretty_time base) (pretty_time now) r;
                Some r))
      overhead_subset
  in
  if ratios = [] then (
    Printf.printf "\nno comparable entries; cannot gate\n";
    exit 1);
  let geomean =
    exp
      (List.fold_left (fun acc r -> acc +. log r) 0. ratios
      /. float_of_int (List.length ratios))
  in
  Printf.printf "\ngeomean ratio: %.3fx (%+.1f%%)\n" geomean
    ((geomean -. 1.) *. 100.);
  if geomean < threshold then (
    Printf.printf "OK: disabled stats collection within the %.0f%% budget\n"
      ((threshold -. 1.) *. 100.);
    exit 0)
  else (
    Printf.printf "FAIL: disabled stats collection exceeds the %.0f%% budget\n"
      ((threshold -. 1.) *. 100.);
    exit 1)

let () =
  let json_path = ref None and sha = ref "unknown" in
  let overhead = ref None and large = ref false in
  let only = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: path :: rest when String.length path >= 2
                                    && String.sub path 0 2 <> "--" ->
        json_path := Some path;
        parse_args rest
    | "--json" :: rest ->
        json_path := Some "BENCH_results.json";
        parse_args rest
    | "--sha" :: v :: rest ->
        sha := v;
        parse_args rest
    | "--check-overhead" :: path :: rest when String.length path >= 2
                                              && String.sub path 0 2 <> "--" ->
        overhead := Some path;
        parse_args rest
    | "--check-overhead" :: rest ->
        overhead := Some "BENCH_results.json";
        parse_args rest
    | "--large" :: rest ->
        large := true;
        parse_args rest
    | "--footprint" :: dir :: _ ->
        footprint dir;
        exit 0
    | "--only" :: names :: rest ->
        only := String.split_on_char ',' names;
        parse_args rest
    | _ :: rest -> parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (match !overhead with
  | Some path -> check_overhead ~threshold:1.02 path
  | None -> ());
  (* --only A,B: just those entries, for an interleaved A/B
     (bench/ab.sh) — Bechamel entries and tier-5 one-shots, no other
     tiers, and JSON only when --json is given *)
  if !only <> [] then begin
    let tier5_only = List.filter (fun name -> List.mem_assoc name tier5_cases) !only in
    let tier5_results, tier5_meta =
      if tier5_only = [] then ([], []) else tier5 ~only:tier5_only ()
    in
    List.iter (fun (key, v) -> Printf.printf "%-32s %13s\n%!" key v) tier5_meta;
    let results =
      List.concat_map
        (fun name ->
          match List.assoc_opt name tests with
          | Some make -> run_test (make ())
          | None when List.mem_assoc name tier5_cases -> []
          | None ->
              Printf.eprintf "no benchmark entry %S\n" name;
              exit 2)
        !only
    in
    List.iter
      (fun (name, est) ->
        Printf.printf "%-32s %13s\n%!" name
          (match est with Some ns -> pretty_time ns | None -> "n/a"))
      results;
    let results = results @ tier5_results in
    Option.iter (fun path -> write_json ~sha:!sha ~extra:[] path results) !json_path;
    exit 0
  end;
  let json_path = !json_path in
  Printf.printf "%-32s %13s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 46 '-');
  (* the 1e5 tier is timed first, before the Bechamel loop has grown
     the heap (see median_time) *)
  let tier5_entries, tier5_meta = tier5 () in
  let results =
    List.concat_map
      (fun (_, make) ->
        let rs = run_test (make ()) in
        List.iter
          (fun (name, est) ->
            let time =
              match est with Some ns -> pretty_time ns | None -> "n/a"
            in
            Printf.printf "%-32s %13s\n%!" name time)
          rs;
        rs)
      tests
    @ tier5_entries
  in
  let extra = tier5_meta @ if !large then run_large () else [] in
  match json_path with
  | None -> ()
  | Some path ->
      write_json ~sha:!sha ~extra path results;
      Printf.printf "\nwrote %s\n" path
