(** The in-process replays: the same request streams, run against a
    store recovered from the same snapshot, either through a copy of
    [Cypher_server.Service]'s dispatch written with public calls only,
    timing each call into a layer as a span (the traced replay), or
    through the real [Service.handle] (the untraced replay the tracing
    overhead is measured against).

    Spans are [name, start, end, parent, request id] and stay in memory
    until the end.  Calls that finish on another thread or domain (a read
    on the pool, an update executed by whichever connection leads the
    group commit) capture their own timestamps, and the issuing
    connection records them afterwards, so each connection writes only
    its own span list.  The one exception is the journal append, which
    runs on the leading connection and is filed under that connection's
    commit span. *)

open Cypher_core
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table
module Pool = Cypher_util.Pool
module Shared = Cypher_server.Shared
module Service = Cypher_server.Service
module Store = Cypher_storage.Store

let now = Drive.now

type span = {
  id : int;
  req : int;
  parent : int;  (** [-1]: a root *)
  name : string;
  t0 : int;
  t1 : int;
  arg : int;
      (** [server.handle]: the request kind; [core.prepare]: 1 on a plan
          cache miss; [core.exec_read]: rows returned *)
}

(* request kinds, the [arg] of a [server.handle] span *)
let kinds = [| "read"; "write"; "tx-update"; "begin"; "commit"; "error" |]
let k_read = 0
let k_write = 1
let k_tx_update = 2
let k_begin = 3
let k_commit = 4
let k_error = 5
let ids = Atomic.make 0
let fresh () = Atomic.fetch_and_add ids 1

(* one connection: the mirrored [Service.t] state plus its span list *)
type conn = {
  session : Session.t;
  mutable pinned : (int * Graph.t) option;
  mutable frame : (string * Stats.t) list;  (** newest first *)
  mutable recorded : span list;
  mutable cur_req : int;
  mutable commit_span : int;  (** parent of a journal append made here *)
  mutable missed : string list;  (** texts that missed the plan cache, newest first *)
}

type t = { shared : Shared.t; readers : int }

let add c ?(parent = -1) ?(arg = 0) ?(id = fresh ()) name t0 t1 =
  c.recorded <- { id; req = c.cur_req; parent; name; t0; t1; arg } :: c.recorded

(* ------------------------------------------------------------------ *)
(* The dispatcher (mirrors Cypher_server.Service)                     *)
(* ------------------------------------------------------------------ *)

let sanitize m = String.map (function '\n' | '\r' -> ' ' | c -> c) (String.trim m)

let guard l =
  if Workload.has_prefix "OK" l || Workload.has_prefix "ERR" l then " " ^ l else l

let ok_line ~rows ~version = Printf.sprintf "OK rows=%d version=%d" rows version
let err_line m = "ERR " ^ sanitize m

let split_lines s =
  match String.trim s with "" -> [] | s -> List.map guard (String.split_on_char '\n' s)

let render (r : Api.result) ~version =
  let plan = match r.Api.r_plan with None -> [] | Some p -> split_lines p in
  let unit_table = Table.columns r.Api.r_table = [] in
  let table = if unit_table then [] else split_lines (Table.to_string r.Api.r_table) in
  let footer =
    if Stats.contains_updates r.Api.r_stats then split_lines (Stats.footer r.Api.r_stats)
    else []
  in
  let rows = if unit_table then 0 else Table.row_count r.Api.r_table in
  plan @ table @ footer @ [ ok_line ~rows ~version ]

let entry config src stats =
  { Session.je_src = src; je_stats = stats; je_config = config; je_kind = `Statement }

(* [f] on the pool, as the server runs statements; returns the result
   and the execution's own start and end *)
let pooled t f =
  let e0 = ref 0 and e1 = ref 0 in
  let r =
    Pool.await
      (Pool.submit ~parallelism:t.readers (fun () ->
           e0 := now ();
           let r = f () in
           e1 := now ();
           r))
  in
  (r, !e0, !e1)

(* the pool span and the execution span inside it *)
let on_pool t c ~parent name f =
  let pid = fresh () in
  let p0 = now () in
  let r, e0, e1 = pooled t f in
  add c ~parent ~id:pid "pool.handoff" p0 (now ());
  add c ~parent:pid
    ~arg:(match r with Ok (r : Api.result) -> Table.row_count r.Api.r_table | Error _ -> 0)
    name e0 e1;
  r

let rendered c ~parent r ~version =
  let r0 = now () in
  let lines =
    match r with Ok r -> render r ~version | Error e -> [ err_line (Errors.to_string e) ]
  in
  add c ~parent "server.render" r0 (now ());
  lines

(* a traced [Shared.commit]: the commit span, and the member's own
   execution inside it wherever the committer ran it *)
let commit t c ~parent exec_name exec =
  let x0 = ref 0 and x1 = ref 0 in
  let cid = fresh () in
  c.commit_span <- cid;
  let c0 = now () in
  let outcome =
    Shared.commit t.shared (fun head ->
        x0 := now ();
        let r = exec head in
        x1 := now ();
        r)
  in
  add c ~parent ~id:cid "server.commit" c0 (now ());
  if !x1 > 0 then add c ~parent:cid exec_name !x0 !x1;
  outcome

let exec_read t c ~root p =
  let version, graph =
    match c.pinned with
    | Some (v, _) -> (v, Session.graph c.session)
    | None -> Shared.current t.shared
  in
  let r =
    on_pool t c ~parent:root "core.exec_read" (fun () ->
        Session.run_prepared_on c.session graph p)
  in
  rendered c ~parent:root r ~version

let exec_tx_update t c ~root src =
  let version = match c.pinned with Some (v, _) -> v | None -> 0 in
  let r = on_pool t c ~parent:root "core.exec_tx" (fun () -> Session.run c.session src) in
  let stats = match r with Ok r -> r.Api.r_stats | Error _ -> Stats.empty in
  c.frame <- (src, stats) :: c.frame;
  rendered c ~parent:root r ~version

let exec_auto_update t c ~root src p =
  let config = Session.config c.session in
  let payload = ref None in
  let exec head =
    match Session.run_prepared_on c.session head p with
    | Ok r ->
        payload := Some r;
        let es =
          if Stats.contains_updates r.Api.r_stats then [ entry config src r.Api.r_stats ]
          else []
        in
        Ok (r.Api.r_graph, es)
    | Error e -> Error (Errors.to_string e)
  in
  match (commit t c ~parent:root "core.exec_update" exec, !payload) with
  | Ok v, Some r -> rendered c ~parent:root (Ok r) ~version:v
  | Ok v, None -> [ ok_line ~rows:0 ~version:v ]
  | Error m, _ -> [ err_line m ]

let begin_tx t c =
  let v, head = Shared.current t.shared in
  (match Session.set_graph c.session head with Ok () -> () | Error _ -> ());
  Session.begin_tx c.session;
  c.pinned <- Some (v, head);
  c.frame <- [];
  [ ok_line ~rows:0 ~version:v ]

let commit_tx t c ~root =
  match c.pinned with
  | None -> [ err_line "no transaction in progress" ]
  | Some (_, base) -> (
      let stmts = List.rev c.frame in
      let working = Session.graph c.session in
      let config = Session.config c.session in
      let final = ref working in
      let exec head =
        if head == base then begin
          final := working;
          Ok
            ( working,
              List.filter_map
                (fun (src, stats) ->
                  if Stats.contains_updates stats then Some (entry config src stats) else None)
                stmts )
        end
        else begin
          let g = ref head in
          let es =
            List.filter_map
              (fun (src, _) ->
                match Session.run_on c.session !g src with
                | Ok res ->
                    g := res.Api.r_graph;
                    if Stats.contains_updates res.Api.r_stats then
                      Some (entry config src res.Api.r_stats)
                    else None
                | Error _ -> None)
              stmts
          in
          final := !g;
          Ok (!g, es)
        end
      in
      let outcome = commit t c ~parent:root "core.exec_update" exec in
      ignore (Session.rollback c.session : (unit, string) result);
      c.pinned <- None;
      c.frame <- [];
      match outcome with
      | Ok v ->
          (match Session.set_graph c.session !final with Ok () -> () | Error _ -> ());
          [ ok_line ~rows:0 ~version:v ]
      | Error m -> [ err_line m ])

let prepare c ~root line =
  let misses () = (Session.cache_stats c.session).Plan_cache.misses in
  let m0 = misses () in
  let p0 = now () in
  let p = Session.prepare c.session line in
  let p1 = now () in
  let miss = misses () > m0 in
  add c ~parent:root ~arg:(if miss then 1 else 0) "core.prepare" p0 p1;
  (p, miss)

(** [handle t c line] answers one request like [Service.handle]. *)
let handle t c line =
  c.cur_req <- fresh ();
  let root = fresh () in
  let h0 = now () in
  let kind, lines =
    match line with
    | ":begin" -> (k_begin, begin_tx t c)
    | ":commit" -> (k_commit, commit_tx t c ~root)
    | ":rollback" ->
        ignore (Session.rollback c.session : (unit, string) result);
        c.pinned <- None;
        c.frame <- [];
        (k_error, [ ok_line ~rows:0 ~version:0 ])
    | _ -> (
        match prepare c ~root line with
        | Error e, _ -> (k_error, [ err_line (Errors.to_string e) ])
        | Ok p, miss ->
            if miss then c.missed <- line :: c.missed;
            if not (Api.prepared_updates p) then (k_read, exec_read t c ~root p)
            else if c.pinned <> None then (k_tx_update, exec_tx_update t c ~root line)
            else (k_write, exec_auto_update t c ~root line p))
  in
  add c ~id:root ~arg:kind "server.handle" h0 (now ());
  lines

(* The probes, run after the measured phase so they do not change how
   the two connections overlap.  For a sample of the texts that missed
   the plan cache: the parse alone, and for a read, its first execution
   after a fresh compile minus an immediate second one on the same
   graph (a read has no side effects), which is the one-off match
   planning.  Returns the two lists of durations, ns. *)
let probe_limit = 400

let run_probes config graph missed =
  let seen = Hashtbl.create 1024 in
  let texts =
    List.filter
      (fun l ->
        let first = not (Hashtbl.mem seen l) in
        if first then Hashtbl.add seen l ();
        first)
      missed
  in
  let stride = max 1 ((List.length texts + probe_limit - 1) / probe_limit) in
  let session = Session.create ~config:(Config.with_stats true config) graph in
  let timed f =
    let t0 = now () in
    ignore (f ());
    float_of_int (now () - t0)
  in
  List.filteri (fun i _ -> i mod stride = 0) texts
  |> List.fold_left
       (fun (parses, plans) line ->
         let parse = timed (fun () -> Api.parse ~dialect:config.Config.dialect line) in
         match Session.prepare session line with
         | Ok p when not (Api.prepared_updates p) ->
             let run () = Session.run_prepared_on session graph p in
             let first = timed run in
             (parse :: parses, (first -. timed run) :: plans)
         | _ -> (parse :: parses, plans))
       ([], [])

(* ------------------------------------------------------------------ *)
(* Running the replay                                                 *)
(* ------------------------------------------------------------------ *)

type run = {
  spans : span list;  (** empty for the untraced replay *)
  request_ns : float array;  (** every measured-phase request, ns *)
  parse_ns : float list;  (** probes, traced replay only *)
  plan_ns : float list;
  recorders : Drive.recorder list;
  wrong : string list;  (** failed checks, replay and invariants *)
  go_ns : int;
  wall_ns : int;
  recovery_s : float;
  alloc_words : float;
  major_gcs : int;
  csr_ns : int;
  cache_hits : int;
  cache_misses : int;
}

(* one replayed connection: how it answers a request, its session (for
   the plan-cache counters) and, in the traced replay, its spans *)
type endpoint = { send : string -> string list; session : Session.t; traced : conn option }

(** [replay ~traced ~dir env plan seed] recovers the store in [dir] (a
    copy of the set-up snapshot) and replays both streams on two
    threads, through the traced copy of the dispatcher when [traced]
    and through [Service.handle] otherwise; then it checks the
    invariants through [Service.handle]. *)
let replay ~traced ~dir (env : Workload.env) (plan : Workload.plan) ~seed =
  let config = Setup.server_config in
  let r0 = now () in
  let store, session =
    match Store.open_db ~config dir with Ok x -> x | Error m -> failwith m
  in
  let recovery_s = float_of_int (now () - r0) /. 1e9 in
  let readers = Pool.recommended () in
  (* systhread id -> its traced connection, for the journal append span *)
  let owners = ref [] in
  let sink =
    if not traced then Store.append_entries store
    else fun entries ->
      let w0 = now () in
      Store.append_entries store entries;
      match List.assoc_opt (Thread.id (Thread.self ())) !owners with
      | Some c -> add c ~parent:c.commit_span "storage.wal_append" w0 (now ())
      | None -> ()
  in
  let shared = Shared.create ~sink (Session.graph session) in
  let t = { shared; readers } in
  let endpoint () =
    if traced then begin
      let c =
        {
          session = Session.create ~config:(Config.with_stats true config) (Session.graph session);
          pinned = None;
          frame = [];
          recorded = [];
          cur_req = -1;
          commit_span = -1;
          missed = [];
        }
      in
      { send = handle t c; session = c.session; traced = Some c }
    end
    else
      let s = Service.create ~readers ~config shared in
      { send = Service.handle s; session = Service.session s; traced = None }
  in
  let conns = Array.init Workload.conns (fun _ -> endpoint ()) in
  let go_ns = ref max_int in
  let gate = Drive.gate () in
  let results = Array.make Workload.conns None in
  let lock = Mutex.create () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i e ->
           Thread.create
             (fun () ->
               Option.iter
                 (fun c -> Mutex.protect lock (fun () -> owners := (Thread.id (Thread.self ()), c) :: !owners))
                 e.traced;
               let times = Drive.Fvec.create () in
               let send line =
                 let h0 = now () in
                 let lines = e.send line in
                 if h0 >= !go_ns then Drive.Fvec.push times (float_of_int (now () - h0));
                 lines
               in
               let g = Workload.gen env ~seed ~conn:i ~round:0 in
               let rc = Drive.run_stream ~send ~gate g plan ~conn:i in
               results.(i) <- Some (rc, times))
             ())
         conns)
  in
  let lookups () =
    Array.fold_left
      (fun (h, m) e ->
        let s = Session.cache_stats e.session in
        (h + s.Plan_cache.hits, m + s.Plan_cache.misses))
      (0, 0) conns
  in
  let gc0 = ref (Gc.quick_stat ()) and csr0 = ref 0L and lookups0 = ref (0, 0) in
  Drive.release gate Workload.conns (fun () ->
      gc0 := Gc.quick_stat ();
      csr0 := Graph.csr_build_ns_total ();
      lookups0 := lookups ();
      go_ns := now ());
  List.iter Thread.join threads;
  let wall_ns = now () - !go_ns in
  let gc1 = Gc.quick_stat () in
  let csr_ns = Int64.to_int (Int64.sub (Graph.csr_build_ns_total ()) !csr0) in
  let hits, misses = lookups () and hits0, misses0 = !lookups0 in
  let results = Array.to_list (Array.map Option.get results) in
  let recorders = List.map fst results in
  let spans =
    Array.fold_left
      (fun acc e -> match e.traced with Some c -> List.rev_append c.recorded acc | None -> acc)
      [] conns
  in
  let request_ns = Array.concat (List.map (fun (_, v) -> Drive.Fvec.to_array v) results) in
  let parse_ns, plan_ns =
    let missed =
      Array.fold_left
        (fun acc e -> match e.traced with Some c -> List.rev_append c.missed acc | None -> acc)
        [] conns
    in
    run_probes config (snd (Shared.current shared)) missed
  in
  let model = Workload.merge_models (List.map (fun r -> r.Drive.model) recorders) in
  let checker = Service.create ~readers ~config shared in
  let invariant_errors =
    List.filter_map
      (fun req ->
        match Workload.verdict req (Service.handle checker req.Workload.line) with
        | Workload.Pass -> None
        | Workload.Failed m | Workload.Wrong m -> Some ("in-process invariant: " ^ m))
      (Workload.invariants env model)
  in
  Store.close store;
  let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  {
    spans;
    request_ns;
    parse_ns;
    plan_ns;
    recorders;
    wrong = List.concat_map (fun r -> r.Drive.wrong) recorders @ invariant_errors;
    go_ns = !go_ns;
    wall_ns;
    recovery_s;
    alloc_words = words gc1 -. words !gc0;
    major_gcs = gc1.Gc.major_collections - !gc0.Gc.major_collections;
    csr_ns;
    cache_hits = hits - hits0;
    cache_misses = misses - misses0;
  }
