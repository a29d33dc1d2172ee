(** Building the database a workload starts from: bulk load, property
    indexes, compaction to a snapshot — through the storage layer's own
    entry points, exactly as an operator would. *)

open Cypher_core
module Store = Cypher_storage.Store
module Bulk = Cypher_storage.Bulk

(** What [cypher_server] runs under with default flags: the revised
    dialect, journal appends fsynced. *)
let server_config = { Config.revised with Config.durability = Config.Fsync }

let seconds_since t0 = float_of_int (Drive.now () - t0) /. 1e9

type built = { bulk_load_s : float; snapshot_write_s : float }

(** [build ~dir data] loads [data] into a fresh store at [dir], indexes
    [Person(pid)] and [Post(postid)], and compacts it to a snapshot. *)
let build ~dir data =
  let store, session =
    match Store.open_db ~config:server_config dir with Ok x -> x | Error m -> failwith m
  in
  let nodes, rels = Dataset.csv data in
  let t0 = Drive.now () in
  (match Bulk.load_strings session ~nodes ~rels with
  | Ok _ -> ()
  | Error e -> failwith (Errors.to_string e));
  let bulk_load_s = seconds_since t0 in
  Session.register_prop_index session ~label:"Person" ~key:"pid";
  Session.register_prop_index session ~label:"Post" ~key:"postid";
  let t1 = Drive.now () in
  (match Store.compact store session with Ok () -> () | Error m -> failwith m);
  let snapshot_write_s = seconds_since t1 in
  Store.close store;
  { bulk_load_s; snapshot_write_s }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      close_out_noerr oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let n = input ic buf 0 (Bytes.length buf) in
        if n > 0 then begin
          output oc buf 0 n;
          go ()
        end
      in
      go ())

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
