(** Wire-level load generator for [cypher_server].

    {v
    load --workload NAME|all --seed N --seconds S --trace 0|1
         [--server EXE] [--allow-dirty] [--smoke] [--bad-expect]
    load --ab-report DIR
    v}

    One run: generate the seeded graph, bulk-load, index and compact it
    into a store, start the real server on it, drive one traffic mix
    over loopback TCP from two connections, check every answer and the
    invariants of the acknowledged writes, kill the server with SIGKILL
    and check them again after recovery.  [--trace 1] adds the
    in-process traced replay and reports per-layer numbers instead of
    end-to-end ones.  The last line of standard output is the result
    object; [bench/load/README.md] describes the metrics. *)

module W = Workload
module R = Report

type opts = {
  workloads : W.t list;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  allow_dirty : bool;
  bad_expect : bool;
  server : string;
  benchmark : string;
}

let run_dir = "bench/load/_run"
let results_dir = "bench/load/results"
let seconds_since = Setup.seconds_since

(* ------------------------------------------------------------------ *)
(* Provenance                                                         *)
(* ------------------------------------------------------------------ *)

(* stdout of a command, [None] when it cannot run or fails *)
let capture prog args =
  try
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    let pid = Unix.create_process prog (Array.of_list (prog :: args)) null w null in
    Unix.close w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ -> None

type provenance = { sha : string; dirty : string; nproc : int }

(* the measured tree is the working directory; a checkout that is not
   itself a git work tree (an exported copy) has no sha to stamp *)
let provenance () =
  let nproc = Domain.recommended_domain_count () in
  match capture "git" [ "rev-parse"; "--show-toplevel" ] with
  | Some top when (try Unix.realpath top = Unix.realpath "." with Unix.Unix_error _ -> false) ->
      let sha = Option.value ~default:"unknown" (capture "git" [ "rev-parse"; "HEAD" ]) in
      let dirty =
        match capture "git" [ "status"; "--porcelain" ] with
        | Some "" -> "false"
        | Some _ -> "true"
        | None -> "unknown"
      in
      { sha; dirty; nproc }
  | _ -> { sha = "unknown"; dirty = "unknown"; nproc }

(* ------------------------------------------------------------------ *)
(* One workload                                                       *)
(* ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  errors : string list;
  attempted : int;
  failed : int;
  e2e : R.metric list;
  layer : R.metric list;
  plan : W.plan;
  measured_s : float;  (** mean over connections of the measured phases *)
  notes : string list;  (** printed after the metric tables *)
}

let ping c =
  match W.terminator (Wire.request c ":ping") with
  | t when W.has_prefix "OK" t -> ()
  | t -> failwith ("ping answered " ^ t)

(* start the server on [dir] and wait for its first answered ping *)
let start_server opts dir =
  let s = Wire.spawn ~exe:opts.server ~dir in
  let c = Wire.connect s.Wire.port in
  Fun.protect ~finally:(fun () -> Wire.close c) (fun () -> ping c);
  s

let check_over port reqs =
  let c = Wire.connect port in
  Fun.protect
    ~finally:(fun () -> Wire.close c)
    (fun () ->
      List.filter_map
        (fun req ->
          match W.verdict req (Wire.request c req.W.line) with
          | W.Pass -> None
          | W.Failed m | W.Wrong m -> Some m)
        reqs)

let stats_over port =
  let c = Wire.connect port in
  Fun.protect ~finally:(fun () -> Wire.close c) (fun () -> Wire.server_stats c)

(* the two connections' traffic; returns their recorders and the
   server's CPU ticks over the measured phase *)
let wire_phase opts env plan (server : Wire.server) ~round =
  let gate = Drive.gate () in
  let domains =
    Array.init W.conns (fun i ->
        Domain.spawn (fun () ->
            try
              let c = Wire.connect server.Wire.port in
              Fun.protect
                ~finally:(fun () -> Wire.close c)
                (fun () ->
                  let g = W.gen env ~seed:opts.seed ~conn:i ~round in
                  Drive.run_stream ~send:(Wire.request c) ~gate g plan ~conn:i)
            with e ->
              Drive.abort gate;
              raise e))
  in
  let cpu0 = ref 0 in
  (try Drive.release gate W.conns (fun () -> cpu0 := Wire.cpu_ticks server.Wire.pid)
   with e ->
     Array.iter (fun d -> try ignore (Domain.join d : Drive.recorder) with _ -> ()) domains;
     raise e);
  let recs = Array.to_list (Array.map Domain.join domains) in
  (recs, Wire.cpu_ticks server.Wire.pid - !cpu0)

(* One repetition: set up a store from an empty directory, start the
   server, run the traffic, check every answer and the invariants, kill
   the server and restart it on the same directory, check again. *)
type round = {
  setup_s : float;
  built : Setup.built;
  restart_s : float;
  hwm_kb : int;
  recs : Drive.recorder list;  (** one per connection, in order *)
  cpu_ticks : int;
  commits : int;
  flushes : int;
  max_batch : int;
  journal : int;
  disk : int;  (** snapshot plus journal after the traffic, bytes *)
  errors : string list;
  dir : string;
  env : W.env;
}

(* from an empty directory to the first answered ping *)
let set_up opts ~size dir =
  let t0 = Drive.now () in
  let data = Dataset.generate size opts.seed in
  let built = Setup.build ~dir data in
  let server = start_server opts dir in
  (seconds_since t0, data, built, server)

(* a set-up and nothing else, for more [setup_s] samples *)
let set_up_only opts ~work ~size k =
  let dir = Printf.sprintf "%s/setup%d" work k in
  let setup_s, _, _, server = set_up opts ~size dir in
  Wire.kill server;
  Setup.rm_rf dir;
  setup_s

let run_round opts w ~work ~size plan k =
  let dir = Printf.sprintf "%s/db%d" work k in
  let setup_s, data, built, server = set_up opts ~size dir in
  let env = W.make_env data w opts.seed ~bad_expect:opts.bad_expect in
  let recs, cpu_ticks = wire_phase opts env plan server ~round:k in
  let model = W.merge_models (List.map (fun r -> r.Drive.model) recs) in
  let invariants = W.invariants env model in
  let errors = List.concat_map (fun r -> r.Drive.wrong) recs @ check_over server.Wire.port invariants in
  let commits, flushes, max_batch = stats_over server.Wire.port in
  let journal = Setup.file_size (Filename.concat dir "journal.wal") in
  let disk = journal + Setup.file_size (Filename.concat dir "snapshot.cy") in
  let hwm_kb = Wire.vm_hwm_kb server.Wire.pid in
  Wire.kill server;
  (* every acknowledged write must survive a SIGKILL *)
  let t1 = Drive.now () in
  let restarted = start_server opts dir in
  let restart_s = seconds_since t1 in
  let errors =
    errors @ List.map (( ^ ) "after restart: ") (check_over restarted.Wire.port invariants)
  in
  Wire.kill restarted;
  {
    setup_s;
    built;
    restart_s;
    hwm_kb;
    recs;
    cpu_ticks;
    commits;
    flushes;
    max_batch;
    journal;
    disk;
    errors;
    dir;
    env;
  }

let concat_vec f recs = Array.concat (List.map (fun r -> Drive.Fvec.to_array (f r)) recs)
let median_of f l = R.median (Array.of_list (List.map f l))

let class_metrics name lats =
  let n = Array.length lats in
  if n = 0 then []
  else
    R.metric (name ^ "_p50_ms") "ms" n (R.median lats)
    (* a p99 needs ten samples beyond it *)
    :: (if n >= 1000 then [ R.metric (name ^ "_p99_ms") "ms" n (R.pct lats 99.) ] else [])

let run_workload opts w =
  let size = if opts.smoke then Dataset.smoke else Dataset.full in
  let plan = W.plan w ~seconds:opts.seconds ~smoke:opts.smoke in
  let work = Printf.sprintf "%s/%s-%d-%d" run_dir (W.name w) opts.seed (Unix.getpid ()) in
  (* the untraced run measures in three rounds on three fresh stores:
     the host's speed drifts over tens of seconds, and spreading the
     measured phases over the whole run averages more of that drift *)
  let rounds = if opts.smoke || opts.trace then 1 else 3 in
  let per_round = { plan with W.ops = Array.map (fun n -> n / rounds) plan.W.ops } in
  Setup.rm_rf work;
  Setup.mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      Wire.kill_all ();
      Setup.rm_rf work)
    (fun () ->
      (* setup_s is the median of five set-ups spread over the run: the
         rounds' three, one before them and one after *)
      let extra k = if rounds = 1 then [] else [ set_up_only opts ~work ~size k ] in
      let first = extra 0 in
      let rs = List.init rounds (run_round opts w ~work ~size per_round) in
      let setups = first @ List.map (fun r -> r.setup_s) rs @ extra 1 in
      let recs = List.concat_map (fun r -> r.recs) rs in
      let errors = ref (List.concat_map (fun r -> r.errors) rs) in
      let attempted = List.fold_left (fun a r -> a + r.Drive.attempted) 0 recs in
      let failed = List.fold_left (fun a r -> a + r.Drive.failed) 0 recs in
      let completed = attempted - failed in
      (* each connection's completed operations over its measured time,
         summed over the connections: the open-loop writer's fixed pace
         does not hide how fast the other connection reads *)
      let throughput =
        List.init W.conns (fun c ->
            let mine = List.map (fun r -> List.nth r.recs c) rs in
            let sum f = List.fold_left (fun a r -> a + f r) 0 mine in
            float_of_int (sum (fun r -> r.Drive.attempted - r.Drive.failed))
            /. (float_of_int (sum (fun r -> r.Drive.elapsed_ns)) /. 1e9))
        |> List.fold_left ( +. ) 0.
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
      let reads = concat_vec (fun r -> r.Drive.read) recs in
      let e2e =
        [ R.metric "throughput_ops" "ops/s" completed throughput ]
        @ class_metrics "read" reads
        @ class_metrics "write" (concat_vec (fun r -> r.Drive.write) recs)
        @ class_metrics "tx" (concat_vec (fun r -> r.Drive.tx) recs)
        @ [
            R.metric "error_rate" "ratio" attempted (float_of_int failed /. float_of_int attempted);
            R.metric "setup_s" "s" (List.length setups) (R.median (Array.of_list setups));
            R.metric "restart_s" "s" rounds (median_of (fun r -> r.restart_s) rs);
            (* /proc reports CPU in ticks of 1/100 s *)
            R.metric "cpu_us_per_op" "us" completed
              (float_of_int (sum (fun r -> r.cpu_ticks)) *. 1e4 /. float_of_int completed);
            R.metric "peak_rss_mb" "MB" rounds (median_of (fun r -> float_of_int r.hwm_kb /. 1024.) rs);
            R.metric "disk_mb" "MB" rounds (median_of (fun r -> float_of_int r.disk /. 1048576.) rs);
          ]
      in
      let commits = sum (fun r -> r.commits) and flushes = sum (fun r -> r.flushes) in
      let model = W.merge_models (List.map (fun r -> r.Drive.model) recs) in
      let lag = concat_vec (fun r -> r.Drive.lag) recs in
      let wire_layer =
        [
          R.metric "server.txn_per_flush" "count" flushes
            (if flushes = 0 then 0. else float_of_int commits /. float_of_int flushes);
          R.metric "server.max_batch" "count" flushes
            (float_of_int (List.fold_left (fun a r -> max a r.max_batch) 0 rs));
          R.metric "server.tx_retries_per_commit" "count" model.W.commits
            (if model.W.commits = 0 then 0.
             else float_of_int model.W.retries /. float_of_int model.W.commits);
          R.metric "storage.wal_bytes_per_commit" "B" commits
            (if commits = 0 then 0. else float_of_int (sum (fun r -> r.journal)) /. float_of_int commits);
          R.metric "storage.bulk_load_s" "s" rounds (median_of (fun r -> r.built.Setup.bulk_load_s) rs);
          R.metric "storage.snapshot_write_s" "s" rounds
            (median_of (fun r -> r.built.Setup.snapshot_write_s) rs);
        ]
        @
        if Array.length lag > 0 then
          [ R.metric "client.lag_p99_ms" "ms" (Array.length lag) (R.pct lag 99.) ]
        else []
      in
      let notes = ref [] in
      let layer =
        if not opts.trace then []
        else begin
          (* the traced replay runs the first round's streams again, in
             process, on a copy of its snapshot; the untraced one runs
             them through the real Service on another copy *)
          let r0 = List.hd rs in
          let replay traced =
            let d = Printf.sprintf "%s/replay-%b" work traced in
            Setup.mkdir_p d;
            Setup.copy_file (Filename.concat r0.dir "snapshot.cy") (Filename.concat d "snapshot.cy");
            Trace.replay ~traced ~dir:d r0.env per_round ~seed:opts.seed
          in
          let on = replay true in
          let off = replay false in
          errors := !errors @ on.Trace.wrong @ off.Trace.wrong;
          if not opts.smoke then begin
            Setup.mkdir_p results_dir;
            Layers.write_spans
              (Printf.sprintf "%s/trace-%s.jsonl" results_dir (W.name w))
              on ~limit:20_000
          end;
          let l = Layers.analyse ~on ~off in
          notes := l.Layers.table;
          let wire_us suffix lats k =
            R.metric ("server.wire_us" ^ suffix) "us" (Array.length lats)
              ((R.median lats *. 1e3) -. l.Layers.handle_p50_us.(k))
          in
          let writes = concat_vec (fun r -> r.Drive.write) r0.recs in
          l.Layers.metrics @ wire_layer
          @ [ wire_us "" (concat_vec (fun r -> r.Drive.read) r0.recs) Trace.k_read ]
          @ if Array.length writes > 0 then [ wire_us ".write" writes Trace.k_write ] else []
        end
      in
      {
        correct = !errors = [];
        errors = !errors;
        attempted;
        failed;
        e2e;
        layer;
        plan;
        measured_s =
          List.fold_left (fun a r -> a +. (float_of_int r.Drive.elapsed_ns /. 1e9)) 0. recs
          /. float_of_int W.conns;
        notes = !notes;
      })

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

(* the metric names BENCHMARK.json lists under [key] *)
let listed benchmark key =
  match R.member key (R.parse_json (R.read_file benchmark)) with
  | Some (R.Arr ms) ->
      List.filter_map (fun m -> match R.member "name" m with Some (R.Str n) -> Some n | _ -> None) ms
  | _ -> failwith (benchmark ^ ": no " ^ key ^ " list")

(* the smoke run's classes are too small for a p99 *)
let select ~smoke w names ms =
  List.filter_map
    (fun n ->
      match List.find_opt (fun m -> m.R.name = n) ms with
      | Some m when not (Float.is_nan m.R.value) -> Some m
      | _ when smoke && Filename.check_suffix n "_p99_ms" -> None
      | _ ->
          Printf.eprintf "load: %s measured no %s (a p99 needs 1000 samples)\n" (W.name w) n;
          exit 2)
    names

let append_history prov opts w (o : outcome) =
  Setup.mkdir_p results_dir;
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 (results_dir ^ "/history.jsonl")
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"time\": %.0f, \"sha\": %s, \"dirty\": %s, \"nproc\": %d, \"workload\": %s, \"seed\": %d, \
         \"seconds\": %s, \"trace\": %b, \"warm_ops_per_conn\": %d, \"ops_per_conn\": [%s], \
         \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
        (Unix.time ()) (R.json_string prov.sha) (R.json_string prov.dirty) prov.nproc
        (R.json_string (W.name w)) opts.seed (R.json_num opts.seconds) opts.trace o.plan.W.warm
        (String.concat ", " (Array.to_list (Array.map string_of_int o.plan.W.ops)))
        o.attempted o.failed
        (R.json_metrics (o.e2e @ o.layer)))

let usage =
  "load --workload read-hot|oltp-mix|tx-contended|analytic-writes|all --seed N --seconds S \
   --trace 0|1 [--server EXE] [--allow-dirty] [--smoke] [--bad-expect] | load --ab-report DIR"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false and allow_dirty = ref false and bad_expect = ref false in
  let server = ref "_build/default/bin/cypher_server.exe" and benchmark = ref "BENCHMARK.json" in
  let ab = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME traffic mix, or all");
      ("--seed", Arg.Set_int seed, "N seed of the data and the request streams");
      ("--seconds", Arg.Set_float seconds, "S measured time the op counts are sized for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--server", Arg.Set_string server, "EXE the cypher_server binary");
      ("--benchmark", Arg.Set_string benchmark, "FILE the BENCHMARK.json naming the reported metrics");
      ("--allow-dirty", Arg.Set allow_dirty, " measure a tree with uncommitted changes");
      ("--smoke", Arg.Set smoke, " tiny data, every workload, both modes, every check");
      ("--bad-expect", Arg.Set bad_expect, " test hook: expect a wrong value, so the checks must fail");
      ("--ab-report", Arg.Set_string ab, "DIR summarise the result lines bench/load/ab.sh saved");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !ab <> "" then (R.ab_report !ab; exit 0);
  let workloads =
    if !smoke || !workload = "all" then W.all
    else
      match W.of_name !workload with
      | Some w -> [ w ]
      | None ->
          prerr_endline usage;
          exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  if not (Sys.file_exists !server) then begin
    Printf.eprintf "load: no server binary at %s\n" !server;
    exit 2
  end;
  let opts =
    {
      workloads;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1 || !smoke;
      smoke = !smoke;
      allow_dirty = !allow_dirty;
      bad_expect = !bad_expect;
      server = !server;
      benchmark = !benchmark;
    }
  in
  let names key = listed opts.benchmark key in
  let e2e_names = names "end_to_end" and layer_names = names "per_layer" in
  let prov = provenance () in
  if prov.dirty = "true" && not (opts.allow_dirty || opts.smoke) then begin
    prerr_endline "load: the working tree has uncommitted changes (pass --allow-dirty to measure it)";
    exit 2
  end;
  (* a wedged server or client must not outlive the time limit *)
  let limit = if opts.smoke then 60. else 170. *. float_of_int (List.length workloads) in
  ignore
    (Thread.create
       (fun () ->
         Thread.delay limit;
         prerr_endline "load: time limit reached";
         Wire.kill_all ();
         Unix._exit 3)
       ()
      : Thread.t);
  (* the server binary's allocation profile, for the in-process replay *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Printf.printf "sha %s dirty %s nproc %d seed %d seconds %g\n%!" prov.sha prov.dirty prov.nproc
    opts.seed opts.seconds;
  let outcomes =
    List.map
      (fun w ->
        let o =
          try run_workload opts w
          with e ->
            Wire.kill_all ();
            let plan = W.plan w ~seconds:opts.seconds ~smoke:opts.smoke in
            {
              correct = false;
              errors = [ Printexc.to_string e ];
              attempted = 0;
              failed = 0;
              e2e = [];
              layer = [];
              plan;
              measured_s = 0.;
              notes = [];
            }
        in
        Printf.printf
          "\n== %s: %d ops per connection after %d warm-up, measured %.2f s, attempted %d, failed %d\n"
          (W.name w) o.plan.W.ops.(0) o.plan.W.warm o.measured_s o.attempted o.failed;
        if not o.correct then
          List.iteri (fun i m -> if i < 10 then Printf.printf "CHECK FAILED: %s\n" m) o.errors
        else if not opts.smoke then begin
          R.print_table "end to end (server over loopback TCP)" o.e2e;
          if o.layer <> [] then R.print_table "per layer (traced in-process replay)" o.layer;
          List.iter print_endline o.notes
        end;
        (w, o))
      workloads
  in
  let correct = List.for_all (fun (_, o) -> o.correct) outcomes in
  let sum f = List.fold_left (fun a (_, o) -> a + f o) 0 outcomes in
  let attempted = sum (fun o -> o.attempted) and failed = sum (fun o -> o.failed) in
  if not correct then begin
    print_endline (R.result_line ~correct:false ~attempted ~failed []);
    exit 1
  end;
  let chosen =
    List.concat_map
      (fun (w, o) ->
        (if opts.smoke || not opts.trace then select ~smoke:opts.smoke w e2e_names o.e2e else [])
        @ if opts.trace then select ~smoke:opts.smoke w layer_names (o.e2e @ o.layer) else [])
      outcomes
  in
  if not opts.smoke then List.iter (fun (w, o) -> append_history prov opts w o) outcomes;
  (* one workload per run under the benchmark contract; with several the
     result line carries the first workload's values *)
  let seen = Hashtbl.create 64 in
  let chosen =
    List.filter
      (fun m ->
        if Hashtbl.mem seen m.R.name then false
        else (
          Hashtbl.add seen m.R.name ();
          true))
      chosen
  in
  print_endline (R.result_line ~correct ~attempted ~failed chosen)
