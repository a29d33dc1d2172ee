(** The real server as a child process, and the TCP client that talks
    to it. *)

type server = { pid : int; port : int; out : in_channel }

(* children still running, killed on any exit path *)
let live : int list ref = ref []
let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
   with Unix.Unix_error _ -> ());
  with_live (fun () -> live := List.filter (( <> ) pid) !live)

let kill_all () = List.iter kill_pid (with_live (fun () -> !live))

(** [spawn ~exe ~dir] starts [exe --db dir] with default flags and
    returns once it prints its listening address. *)
let spawn ~exe ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe [| exe; "--db"; dir |] null w Unix.stderr in
  with_live (fun () -> live := pid :: !live);
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  let prefix = "listening on " in
  let rec port () =
    match input_line out with
    | exception End_of_file -> failwith ("server exited during start-up on " ^ dir)
    | l when Workload.has_prefix prefix l -> (
        match String.rindex_opt l ':' with
        | Some i -> int_of_string (String.sub l (i + 1) (String.length l - i - 1))
        | None -> failwith ("unreadable server banner: " ^ l))
    | _ -> port ()
  in
  { pid; port = port (); out }

let kill s =
  kill_pid s.pid;
  close_in_noerr s.out

(** Fields 14 and 15 of [/proc/<pid>/stat], user + system CPU, in
    clock ticks of 1/100 s (Linux fixes USER_HZ at 100). *)
let cpu_ticks pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the fields after the parenthesised command name start at field 3 *)
  let after = String.rindex line ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub line after (String.length line - after))) in
  int_of_string f.(11) + int_of_string f.(12)

(** Peak resident set ([VmHWM]) in kB. *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let l = input_line ic in
        if Workload.has_prefix "VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" Fun.id
        else go ()
      in
      go ())

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* a server that stops answering fails the run instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(** One request line, answered by payload lines and a terminator. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let rec read acc =
    let l = input_line c.ic in
    if Workload.is_terminator l then List.rev (l :: acc) else read (l :: acc)
  in
  read []

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(** [:stats] as (commits, flushes, max_batch). *)
let server_stats c =
  match request c ":stats" with
  | l :: _ -> (
      try
        Scanf.sscanf (String.trim l) "commits=%d flushes=%d max_batch=%d" (fun a b m ->
            (a, b, m))
      with Scanf.Scan_failure _ | End_of_file | Failure _ ->
        failwith ("unreadable :stats line " ^ l))
  | [] -> failwith "empty :stats answer"
