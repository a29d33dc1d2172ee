(** The network front door: a concurrent multi-session Cypher server.

    {v
    cypher_server [--port N] [--host A] [--db DIR] [--no-fsync]
                  [--readers N]
    v}

    Protocol: newline-delimited text, one request per line (a Cypher
    statement or a [:]-command), each answered by payload lines plus an
    [OK rows=<n> version=<v>] / [ERR <msg>] terminator — try it with
    [printf 'CREATE (:A)\n:quit\n' | nc 127.0.0.1 <port>].

    With [--db DIR] every committed transaction write-aheads to the
    directory's journal before publishing (group commit: one fsync per
    concurrent batch); without it the server runs in memory. *)

open Cypher_core
open Cypher_server

let usage = "cypher_server [--port N] [--host A] [--db DIR] [--no-fsync] [--readers N]"

let () =
  let port = ref 0 in
  let host = ref "127.0.0.1" in
  let db = ref None in
  let fsync = ref true in
  let readers = ref (Cypher_util.Pool.recommended ()) in
  let spec =
    [
      ("--port", Arg.Set_int port, "N listen port (default: ephemeral)");
      ("--host", Arg.String (fun h -> host := h), "A bind address (default 127.0.0.1)");
      ( "--db",
        Arg.String (fun d -> db := Some d),
        "DIR durable database directory (omit to run in memory)" );
      ( "--no-fsync",
        Arg.Clear fsync,
        " buffered journal writes (no fsync per commit batch)" );
      ( "--readers",
        Arg.Set_int readers,
        "N domain-pool width for read statements (default: cores)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let config =
    let c = Config.revised in
    { c with Config.durability = (if !fsync then Config.Fsync else Config.Buffered) }
  in
  let graph, sink =
    match !db with
    | None -> (Cypher_graph.Graph.empty, None)
    | Some dir -> (
        match Cypher_storage.Store.open_db ~config dir with
        | Error m ->
            Printf.eprintf "cypher_server: %s\n%!" m;
            exit 1
        | Ok (store, session) ->
            let r = Cypher_storage.Store.recovery store in
            Printf.printf "%s\n%!" (Cypher_storage.Recovery.describe r);
            ( Session.graph session,
              Some (Cypher_storage.Store.append_entries store) ))
  in
  (* The open leaves its garbage in the major heap: the image string
     (3.8 MB for the wire benchmark's store; 4.5 MB when the figures
     below were taken) and the decode's arrays.
     Uncollected, it lasted until the first requests had allocated on
     top of it (VmHWM 36.2-36.6 MB within 0.1 s of listening, VmRSS
     31.4-32.1 MB once it was freed).  Collected here, once, before any
     thread starts (20-27 ms on that store), it set no peak: the
     benchmark's peak_rss_mb fell 2.2-2.4 MB on every workload
     (DESIGN.md, "Server memory"). *)
  Gc.full_major ();
  let shared = Shared.create ?sink graph in
  let make_service () = Service.create ~readers:!readers ~config shared in
  match Server.start ~host:!host ~port:!port ~make_service () with
  | Error m ->
      Printf.eprintf "cypher_server: %s\n%!" m;
      exit 1
  | Ok server ->
      Printf.printf "listening on %s:%d\n%!" !host (Server.port server);
      Server.wait server
