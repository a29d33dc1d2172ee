(** The four traffic mixes: seeded request streams, the check every
    response must pass, and the model of acknowledged writes the
    after-run invariants are compared against.

    A stream depends only on the seed and the connection, never on the
    answers, so the wire run and the in-process traced replay send the
    same requests in the same order. *)

type t = Read_hot | Oltp_mix | Tx_contended | Analytic_writes

let all = [ Read_hot; Oltp_mix; Tx_contended; Analytic_writes ]

let name = function
  | Read_hot -> "read-hot"
  | Oltp_mix -> "oltp-mix"
  | Tx_contended -> "tx-contended"
  | Analytic_writes -> "analytic-writes"

let of_name s = List.find_opt (fun w -> name w = s) all

(** Every workload drives two connections. *)
let conns = 2

(* operations per connection and per second of measured time on the
   reference host (2 cores); a run issues a fixed count derived from
   --seconds, so a faster build does the same work sooner instead of
   writing more data.  Transactions are sized to about 0.4 s per second:
   the restart replays every one of them from the journal. *)
let rate = function
  | Read_hot -> 14400.
  | Oltp_mix -> 630.
  | Tx_contended -> 1000.
  | Analytic_writes -> 160.

(** The connection of [Analytic_writes] that writes on a schedule. *)
let open_loop_conn = 1

let open_loop_rate = 50.

type plan = { warm : int; ops : int array }

let plan w ~seconds ~smoke =
  let per_conn = Float.to_int (rate w *. seconds) in
  let warm =
    match w with
    | Read_hot -> 600
    | Oltp_mix -> 200
    | Tx_contended -> 50
    | Analytic_writes -> 10
  in
  let ops =
    Array.init conns (fun c ->
        if w = Analytic_writes && c = open_loop_conn then
          Float.to_int (open_loop_rate *. seconds)
        else per_conn)
  in
  if smoke then
    { warm = 20; ops = Array.mapi (fun c n -> min n (if w = Analytic_writes && c = open_loop_conn then 10 else 100)) ops }
  else { warm; ops }

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_terminator l = has_prefix "OK" l || has_prefix "ERR" l

let terminator lines =
  match List.rev lines with [] -> "" | last :: _ -> last

(** The table rows of a read response, as rendered cells (strings keep
    their quotes): the header line and the terminator are dropped. *)
let cells lines =
  let row l =
    let n = String.length l in
    if n >= 4 && has_prefix "| " l && String.sub l (n - 2) 2 = " |" then
      Some (String.split_on_char '|' (String.sub l 2 (n - 4)) |> List.map String.trim)
    else None
  in
  match List.filter_map row lines with [] -> [] | _header :: rows -> rows

type verdict = Pass | Failed of string | Wrong of string

type req = {
  line : string;
  is_read : bool;  (** timed into the read class *)
  check : string list -> (unit, string) result;  (** on the full response *)
}

(** [Failed] is an [ERR] answer (the operation failed); [Wrong] is an
    answer that contradicts the data (the run is incorrect). *)
let verdict req lines =
  let t = terminator lines in
  if has_prefix "ERR" t then Failed (req.line ^ " -> " ^ t)
  else if not (has_prefix "OK" t) then Wrong (req.line ^ ": no terminator")
  else
    match req.check lines with
    | Ok () -> Pass
    | Error m -> Wrong (req.line ^ ": " ^ m)

let ok _ = Ok ()

let expect_rows expected lines =
  let got = cells lines in
  if got = expected then Ok ()
  else
    Error
      (Printf.sprintf "expected %s, got %s"
         (String.concat ";" (List.map (String.concat ",") expected))
         (String.concat ";" (List.map (String.concat ",") got)))

let at_most n lines =
  let k = List.length (cells lines) in
  if k <= n then Ok () else Error (Printf.sprintf "%d rows, at most %d expected" k n)

let one_int pred lines =
  match cells lines with
  | [ [ c ] ] -> (
      match int_of_string_opt c with
      | Some v when pred v -> Ok ()
      | _ -> Error ("unexpected value " ^ c))
  | _ -> Error "expected one single-column row"

let quote s = "'" ^ s ^ "'"

(* ------------------------------------------------------------------ *)
(* Model of acknowledged writes                                       *)
(* ------------------------------------------------------------------ *)

type model = {
  mutable created : int;  (** posts *)
  mutable deleted : int;
  live_posts : (int, unit) Hashtbl.t;
      (** this connection's acknowledged posts not yet deleted *)
  mutable knows_added : int;
  likes : (int * int, unit) Hashtbl.t;
  ages : (int, int) Hashtbl.t;  (** last acknowledged [SET age] *)
  increments : (int, int) Hashtbl.t;  (** committed transactions per pid *)
  mutable commits : int;
  mutable retries : int;
}

let new_model () =
  {
    created = 0;
    deleted = 0;
    live_posts = Hashtbl.create 64;
    knows_added = 0;
    likes = Hashtbl.create 64;
    ages = Hashtbl.create 64;
    increments = Hashtbl.create 16;
    commits = 0;
    retries = 0;
  }

let merge_models ms =
  let m = new_model () in
  List.iter
    (fun x ->
      m.created <- m.created + x.created;
      m.deleted <- m.deleted + x.deleted;
      m.knows_added <- m.knows_added + x.knows_added;
      m.commits <- m.commits + x.commits;
      m.retries <- m.retries + x.retries;
      Hashtbl.iter (Hashtbl.replace m.likes) x.likes;
      Hashtbl.iter (Hashtbl.replace m.ages) x.ages;
      Hashtbl.iter
        (fun k v ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt m.increments k) in
          Hashtbl.replace m.increments k (cur + v))
        x.increments)
    ms;
  m

(* ------------------------------------------------------------------ *)
(* Streams                                                            *)
(* ------------------------------------------------------------------ *)

type cls = Read | Write | Tx

type op = {
  cls : cls;
  reqs : req list;  (** a transaction: [:begin] … [:commit] *)
  ack : model -> unit;  (** applied once the operation succeeded *)
}

(** Shared by both connections of a run. *)
type env = {
  data : Dataset.t;
  workload : t;
  hot : int array;  (** read-hot keys, most popular first *)
  hot_cdf : float array;  (** Zipf(1) over [hot] *)
  tx_hot : int array;  (** the persons transactions contend on *)
  bad_expect : bool;  (** test hook: expect a wrong name on point reads *)
}

let hot_keys = 40
let tx_keys = 16

let make_env data workload seed ~bad_expect =
  let rng = Random.State.make [| seed; 0x407 |] in
  let n = data.Dataset.size.Dataset.persons in
  let distinct k lo =
    let seen = Hashtbl.create k in
    let out = ref [] in
    while List.length !out < k do
      let p = lo + Random.State.int rng (n - lo) in
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        out := p :: !out
      end
    done;
    Array.of_list (List.rev !out)
  in
  (* hot keys avoid the hubs (the lowest twentieth of pids), so every
     seed's hot set does similar work per request *)
  let hot = distinct hot_keys (n / 20) in
  let weights = Array.init hot_keys (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  let hot_cdf =
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights
  in
  { data; workload; hot; hot_cdf; tx_hot = distinct tx_keys 0; bad_expect }

(** Per-connection generator state.  Everything here is decided at
    generation time, so the stream is the same whatever the answers. *)
type gen = {
  env : env;
  conn : int;
  rng : Random.State.t;
  mutable n : int;
  mutable reads : int;
  mutable writes : int;
  mutable next_post : int;
  live : int Queue.t;  (** this connection's posts not yet deleted *)
  ages : (int, int) Hashtbl.t;
}

let gen env ~seed ~conn ~round =
  {
    env;
    conn;
    rng = Random.State.make [| seed; conn; round; 0x57 |];
    n = 0;
    reads = 0;
    writes = 0;
    next_post = 1_000_000 + (conn * 10_000_000);
    live = Queue.create ();
    ages = Hashtbl.create 64;
  }

let persons g = g.env.data.Dataset.size.Dataset.persons
let any_person g = Random.State.int g.rng (persons g)
let read req = { cls = Read; reqs = [ req ]; ack = ignore }
let write line ack = { cls = Write; reqs = [ { line; is_read = false; check = ok } ]; ack }

let point g pid =
  let expected = if g.env.bad_expect then pid + 1 else pid in
  read
    {
      line = Printf.sprintf "MATCH (a:Person {pid: %d}) RETURN a.name AS name, a.age AS age" pid;
      is_read = true;
      check =
        (fun lines ->
          match cells lines with
          | [ [ name; _ ] ] when name = quote (Dataset.name expected) -> Ok ()
          | _ -> Error ("expected the name of person " ^ string_of_int expected));
    }

let friends g pid =
  let out = g.env.data.Dataset.out.(pid) in
  let expected =
    List.init (min 20 (Array.length out)) (fun i ->
        [ string_of_int out.(i); quote (Dataset.name out.(i)) ])
  in
  read
    {
      line =
        Printf.sprintf
          "MATCH (a:Person {pid: %d})-[:KNOWS]->(b) RETURN b.pid AS pid, b.name AS name \
           ORDER BY pid LIMIT 20"
          pid;
      is_read = true;
      check = expect_rows expected;
    }

let two_hop g pid =
  read
    {
      line =
        Printf.sprintf
          "MATCH (a:Person {pid: %d})-[:KNOWS]->()-[:KNOWS]->(c) RETURN count(c) AS n" pid;
      is_read = true;
      check = expect_rows [ [ string_of_int (Dataset.two_hop g.env.data pid) ] ];
    }

(* the analytic reads run while KNOWS and ages change under them, so
   their answers are checked for shape, not value *)
let analytic_read g =
  let pid = any_person g in
  let shape = g.reads mod 5 in
  g.reads <- g.reads + 1;
  let line, check =
    match shape with
    | 0 ->
        ( Printf.sprintf
            "MATCH (a:Person) WHERE a.age > %d RETURN a.city AS city, count(*) AS n \
             ORDER BY n DESC, city LIMIT 5"
            (20 + Random.State.int g.rng 50),
          at_most 5 )
    | 1 ->
        ( Printf.sprintf
            "MATCH (a:Person {pid: %d})-[:KNOWS]->()-[:KNOWS]->(c) RETURN c.city AS city, \
             count(*) AS n ORDER BY n DESC, city LIMIT 10"
            pid,
          at_most 10 )
    | 2 ->
        ( Printf.sprintf
            "MATCH (a:Person {pid: %d})-[:KNOWS]->()-[:KNOWS]->()-[:KNOWS]->(c) RETURN \
             count(c) AS n"
            pid,
          one_int (fun v -> v >= 0) )
    | 3 ->
        ( Printf.sprintf
            "MATCH (a:Person {pid: %d}), (b:Person {pid: %d}) RETURN \
             length(shortestPath((a)-[:KNOWS*..6]->(b))) AS len"
            pid (any_person g),
          at_most 1 )
    | _ ->
        ( Printf.sprintf
            "MATCH (a:Person {pid: %d})-[:KNOWS]->(f)-[:CREATED]->(p:Post) RETURN p.postid \
             AS id, p.len AS len ORDER BY len DESC, id LIMIT 10"
            pid,
          at_most 10 )
  in
  read { line; is_read = true; check }

let create_post g =
  let pid = any_person g in
  let id = g.next_post in
  g.next_post <- id + 1;
  Queue.push id g.live;
  write
    (Printf.sprintf
       "MATCH (a:Person {pid: %d}) CREATE (a)-[:CREATED]->(:Post {postid: %d, by: %d, len: %d})"
       pid id pid
       (1 + Random.State.int g.rng 1000))
    (fun m ->
      m.created <- m.created + 1;
      Hashtbl.replace m.live_posts id ())

(* each connection sets the ages of its own residue class of pids, so
   the last acknowledged value of every person is known *)
let set_age g ~owner ~stride =
  let pid = owner + (stride * Random.State.int g.rng (persons g / stride)) in
  let cur =
    match Hashtbl.find_opt g.ages pid with
    | Some a -> a
    | None -> g.env.data.Dataset.age.(pid)
  in
  let v =
    Dataset.min_age
    + ((cur - Dataset.min_age + 1 + Random.State.int g.rng (Dataset.ages - 1))
      mod Dataset.ages)
  in
  Hashtbl.replace g.ages pid v;
  write
    (Printf.sprintf "MATCH (a:Person {pid: %d}) SET a.age = %d" pid v)
    (fun m -> Hashtbl.replace m.ages pid v)

(* MERGE SAME is left out: every MERGE SAME statement rebuilds the whole
   graph (Quotient.apply), ~350 ms at this size, which no interactive mix
   can carry *)
let merge_all g =
  let pid = any_person g in
  let tid = Random.State.int g.rng g.env.data.Dataset.size.Dataset.tags in
  write
    (Printf.sprintf "MATCH (a:Person {pid: %d}), (t:Tag {tid: %d}) MERGE ALL (a)-[:LIKES]->(t)"
       pid tid)
    (fun m -> Hashtbl.replace m.likes (pid, tid) ())

(* the stream deletes a post whatever its create answered; the model
   counts the delete only if the create was acknowledged *)
let delete_post g =
  match Queue.take_opt g.live with
  | None -> create_post g
  | Some id ->
      write
        (Printf.sprintf "MATCH (p:Post {postid: %d}) DETACH DELETE p" id)
        (fun m ->
          if Hashtbl.mem m.live_posts id then begin
            Hashtbl.remove m.live_posts id;
            m.deleted <- m.deleted + 1
          end)

let new_knows g =
  let a = any_person g in
  let b = (a + 1 + Random.State.int g.rng (persons g - 1)) mod persons g in
  write
    (Printf.sprintf "MATCH (a:Person {pid: %d}), (b:Person {pid: %d}) CREATE (a)-[:KNOWS]->(b)"
       a b)
    (fun m -> m.knows_added <- m.knows_added + 1)

let transaction g =
  let pid = g.env.tx_hot.(Random.State.int g.rng tx_keys) in
  let floor = g.env.data.Dataset.balance.(pid) in
  let cmd line = { line; is_read = false; check = ok } in
  {
    cls = Tx;
    reqs =
      [
        cmd ":begin";
        {
          line = Printf.sprintf "MATCH (a:Person {pid: %d}) RETURN a.balance AS b" pid;
          is_read = true;
          (* balances only grow, one per committed transaction *)
          check = one_int (fun v -> v >= floor);
        };
        cmd (Printf.sprintf "MATCH (a:Person {pid: %d}) SET a.balance = a.balance + 1" pid);
        cmd (Printf.sprintf "CREATE (:Event {pid: %d})" pid);
        cmd ":commit";
      ];
    ack =
      (fun m ->
        m.commits <- m.commits + 1;
        let cur = Option.value ~default:0 (Hashtbl.find_opt m.increments pid) in
        Hashtbl.replace m.increments pid (cur + 1));
  }

let zipf g =
  let u = Random.State.float g.rng 1. in
  let cdf = g.env.hot_cdf in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  g.env.hot.(go 0 (Array.length cdf - 1))

let keyed_read g pid =
  let shape = g.reads mod 3 in
  g.reads <- g.reads + 1;
  match shape with 0 -> point g pid | 1 -> friends g pid | _ -> two_hop g pid

(** The connection's next operation. *)
let next g =
  let i = g.n in
  g.n <- i + 1;
  match g.env.workload with
  | Read_hot ->
      (* the first pass visits every hot statement once, so warm-up
         fills the plan cache whatever the draw *)
      if i < 3 * hot_keys then keyed_read g g.env.hot.(i / 3) else keyed_read g (zipf g)
  | Oltp_mix ->
      if i mod 5 < 4 then keyed_read g (any_person g)
      else begin
        let k = g.writes mod 4 in
        g.writes <- g.writes + 1;
        match k with
        | 0 -> create_post g
        | 1 -> set_age g ~owner:g.conn ~stride:conns
        | 2 -> merge_all g
        | _ -> delete_post g
      end
  | Tx_contended -> transaction g
  | Analytic_writes ->
      if g.conn <> open_loop_conn then analytic_read g
      else begin
        let k = g.writes mod 3 in
        g.writes <- g.writes + 1;
        match k with
        | 0 -> new_knows g
        | 1 -> set_age g ~owner:0 ~stride:1
        | _ -> create_post g
      end

(* ------------------------------------------------------------------ *)
(* Invariants                                                         *)
(* ------------------------------------------------------------------ *)

let pid_list pids = "[" ^ String.concat ", " (List.map string_of_int pids) ^ "]"

(** Read requests whose answers must agree with the data plus every
    acknowledged write — run after the workload and again after the
    kill-and-restart. *)
let invariants env (m : model) =
  let d = env.data in
  let size = d.Dataset.size in
  let count q n =
    { line = q; is_read = true; check = expect_rows [ [ string_of_int n ] ] }
  in
  let posts = size.Dataset.posts + m.created - m.deleted in
  let by_pid table render =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
    |> List.sort compare
    |> List.map (fun (k, v) -> [ string_of_int k; render k v ])
  in
  let rows_for what expected =
    (* IN-lists of at most 200 keys keep each answer small *)
    let rec chunk acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
          if n = 200 then chunk (List.rev cur :: acc) [ x ] 1 rest
          else chunk acc (x :: cur) (n + 1) rest
    in
    List.map
      (fun rows ->
        let pids = List.map (fun r -> int_of_string (List.hd r)) rows in
        {
          line =
            Printf.sprintf
              "MATCH (a:Person) WHERE a.pid IN %s RETURN a.pid AS pid, a.%s AS v ORDER BY pid"
              (pid_list pids) what;
          is_read = true;
          check = expect_rows rows;
        })
      (chunk [] [] 0 expected)
  in
  let names =
    List.init 20 (fun i -> i * (size.Dataset.persons / 20))
    |> List.map (fun p -> [ string_of_int p; quote (Dataset.name p) ])
  in
  [
    count "MATCH (a:Person) RETURN count(a) AS n" size.Dataset.persons;
    count "MATCH (p:Post) RETURN count(p) AS n" posts;
    count "MATCH ()-[r:CREATED]->() RETURN count(r) AS n" posts;
    count "MATCH ()-[r:KNOWS]->() RETURN count(r) AS n" (Dataset.knows_count d + m.knows_added);
    count "MATCH ()-[r:LIKES]->() RETURN count(r) AS n" (Hashtbl.length m.likes);
    count "MATCH (e:Event) RETURN count(e) AS n" m.commits;
    count "MATCH (a:Person) RETURN sum(a.balance) AS n" (Dataset.balance_sum d + m.commits);
  ]
  @ rows_for "name" names
  @ rows_for "age" (by_pid m.ages (fun _ v -> string_of_int v))
  @ rows_for "balance"
      (by_pid m.increments (fun k v -> string_of_int (d.Dataset.balance.(k) + v)))
