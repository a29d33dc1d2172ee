(** From the traced replay's spans to per-layer numbers: self times,
    the unattributed remainder of each request class, the probes, and
    the tracing overhead against the untraced replay through the real
    [Service]. *)

open Trace

let dur s = s.t1 - s.t0
let us ns = float_of_int ns /. 1e3

type t = {
  metrics : Report.metric list;
  handle_p50_us : float array;  (** per request kind, traced run *)
  table : string list;  (** the span self-time table, for printing *)
}

let write_spans path (run : Trace.run) ~limit =
  let requests =
    List.fold_left (fun n s -> if s.name = "server.handle" then n + 1 else n) 0 run.spans
  in
  (* a long run keeps every stride-th request whole, to bound the file *)
  let stride = max 1 ((requests + limit - 1) / limit) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"requests\": %d, \"sampled_every\": %d, \"measured_from_ns\": %d, \"kinds\": [%s]}\n"
        requests stride run.go_ns
        (String.concat ", " (Array.to_list (Array.map Report.json_string kinds)));
      List.iter
        (fun s ->
          if s.req mod stride = 0 then
            Printf.fprintf oc
              "{\"req\": %d, \"id\": %d, \"parent\": %d, \"name\": %s, \"start_ns\": %d, \
               \"end_ns\": %d, \"arg\": %d}\n"
              s.req s.id s.parent (Report.json_string s.name) s.t0 s.t1 s.arg)
        (List.sort (fun a b -> compare (a.req, a.t0) (b.req, b.t0)) run.spans))

let analyse ~(on : Trace.run) ~(off : Trace.run) =
  let roots = Hashtbl.create 4096 in
  List.iter (fun s -> if s.name = "server.handle" then Hashtbl.replace roots s.req s) on.spans;
  let measured s =
    match Hashtbl.find_opt roots s.req with Some r -> r.t0 >= on.go_ns | None -> false
  in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace children s.parent (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    on.spans;
  let kids s = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
  let self s = dur s - List.fold_left (fun a k -> a + dur k) 0 (kids s) in
  let named name = List.filter (fun s -> s.name = name && measured s) on.spans in
  let mean_of f l =
    if l = [] then nan else List.fold_left (fun a s -> a +. f s) 0. l /. float_of_int (List.length l)
  in
  let m name unit_ l f = Report.metric name unit_ (List.length l) (mean_of f l) in
  (* --- the self-time table --- *)
  let layer_names =
    [ "server.handle"; "core.prepare"; "pool.handoff"; "core.exec_read"; "core.exec_tx";
      "server.commit"; "core.exec_update"; "storage.wal_append"; "server.render" ]
  in
  let handle_total =
    List.fold_left (fun a s -> a + dur s) 0 (named "server.handle") |> float_of_int
  in
  let table = ref [] in
  let line fmt = Printf.ksprintf (fun l -> table := l :: !table) fmt in
  line "span self times, measured phase (self = span minus its child spans)";
  line "%-20s %9s %12s %12s %12s %7s" "span" "calls" "mean_us" "self_us" "self_p50_us" "share";
  List.iter
    (fun name ->
      let l = named name in
      if l <> [] then begin
        let selfs = Array.of_list (List.map (fun s -> us (self s)) l) in
        let total_self = Array.fold_left ( +. ) 0. selfs in
        line "%-20s %9d %12.2f %12.2f %12.2f %6.1f%%" name (List.length l)
          (mean_of (fun s -> us (dur s)) l)
          (Report.mean selfs) (Report.median selfs)
          (100. *. total_self *. 1e3 /. handle_total)
      end)
    layer_names;
  let by_kind k = List.filter (fun s -> s.arg = k) (named "server.handle") in
  line "unattributed remainder (server.handle self time) per request kind:";
  Array.iteri
    (fun k kname ->
      let l = by_kind k in
      if l <> [] then
        line "  %-10s %9d requests  mean %8.2f us  p50 %8.2f us" kname (List.length l)
          (mean_of (fun s -> us (self s)) l)
          (Report.median (Array.of_list (List.map (fun s -> us (self s)) l))))
    kinds;
  let probe_us l = Array.of_list (List.map (fun ns -> ns /. 1e3) l) in
  (* --- commit waits: commit wall minus the member's own execution --- *)
  let waits =
    List.map
      (fun c ->
        let own = List.fold_left (fun a k -> if k.name = "core.exec_update" then a + dur k else a) 0 (kids c) in
        us (dur c - own))
      (named "server.commit")
  in
  let handle_mean_on = Report.mean on.request_ns in
  let handle_mean_off = Report.mean off.request_ns in
  line "tracing overhead: request mean %.2f us traced vs %.2f us untraced; wall %.3f s vs %.3f s"
    (handle_mean_on /. 1e3) (handle_mean_off /. 1e3)
    (float_of_int on.wall_ns /. 1e9) (float_of_int off.wall_ns /. 1e9);
  let ops = List.fold_left (fun a r -> a + r.Drive.attempted) 0 off.recorders in
  let reads = named "core.exec_read" in
  let handle_p50_us =
    Array.init (Array.length kinds) (fun k ->
        Report.median (Array.of_list (List.map (fun s -> us (dur s)) (by_kind k))))
  in
  let lookups = on.cache_hits + on.cache_misses in
  {
    handle_p50_us;
    table = List.rev !table;
    metrics =
      [
        m "core.prepare_us" "us" (named "core.prepare") (fun s -> us (dur s));
        Report.metric "core.plan_cache_hit_ratio" "ratio" lookups
          (if lookups = 0 then nan else float_of_int on.cache_hits /. float_of_int lookups);
        Report.metric "parser.parse_us" "us" (List.length on.parse_ns) (Report.mean (probe_us on.parse_ns));
        m "core.exec_read_us" "us" reads (fun s -> us (dur s));
        Report.metric "matcher.plan_us" "us" (List.length on.plan_ns) (Report.mean (probe_us on.plan_ns));
        m "core.exec_update_us" "us" (named "core.exec_update") (fun s -> us (dur s));
        m "core.exec_tx_us" "us" (named "core.exec_tx") (fun s -> us (dur s));
        m "core.rows_per_read" "rows" reads (fun s -> float_of_int s.arg);
        m "pool.handoff_us" "us" (named "pool.handoff") (fun s -> us (self s));
        Report.metric "graph.csr_build_ms" "ms" ops (float_of_int off.csr_ns /. 1e6);
        Report.metric "server.commit_wait_us" "us" (List.length waits) (Report.mean (Array.of_list waits));
        m "server.render_us" "us" (named "server.render") (fun s -> us (dur s));
        Report.metric "server.handle_us" "us" (List.length (by_kind k_read)) handle_p50_us.(k_read);
        m "server.unattributed_us" "us" (named "server.handle") (fun s -> us (self s));
        m "storage.wal_append_us" "us" (named "storage.wal_append") (fun s -> us (dur s));
        Report.metric "storage.recovery_s" "s" 1 off.recovery_s;
        Report.metric "runtime.alloc_words_per_op" "words" ops (off.alloc_words /. float_of_int ops);
        Report.metric "runtime.major_gcs_per_kop" "count" ops
          (1000. *. float_of_int off.major_gcs /. float_of_int ops);
        Report.metric "trace.overhead_pct" "%" (Array.length on.request_ns)
          (100. *. (handle_mean_on -. handle_mean_off) /. handle_mean_off);
      ];
  }
