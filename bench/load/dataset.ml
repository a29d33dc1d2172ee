(** The seeded social graph every workload runs against, with the ground
    truth the response checks compare to.

    Persons carry [{pid, name, age, city, balance}]; [KNOWS] edges have a
    skewed out-degree (a power law in the pid, so the shape of the graph
    is the same for every seed and only the endpoints move); posts
    [{postid, by, len}] hang off their author by [CREATED]; tags
    [{tid, name}] are the targets of the MERGE upserts.  The post key is
    [postid], not [id]: the bulk loader reserves the [id] column for the
    file-local row identifier. *)

type size = { persons : int; knows : int; posts : int; tags : int }

let full = { persons = 10_000; knows = 50_000; posts = 20_000; tags = 200 }
let smoke = { persons = 400; knows = 2_000; posts = 800; tags = 20 }

type t = {
  size : size;
  age : int array;
  city : int array;
  balance : int array;
  out : int array array;  (** out-neighbours of each pid, ascending *)
  post_by : int array;
  post_len : int array;
}

let name pid = "name" ^ string_of_int pid
let cities = 50
let min_age = 18
let ages = 62

(* out-degree of [pid]: proportional to (pid+1)^-1/2, at least 1, so
   pid 0 is the largest hub and the total is close to [knows] *)
let degrees size =
  let w = Array.init size.persons (fun i -> 1. /. sqrt (float_of_int (i + 1))) in
  let total = Array.fold_left ( +. ) 0. w in
  Array.map
    (fun wi ->
      max 1 (int_of_float (Float.round (float_of_int size.knows *. wi /. total))))
    w

let generate size seed =
  let rng = Random.State.make [| seed; 0x50c1a1 |] in
  let n = size.persons in
  let age = Array.init n (fun _ -> min_age + Random.State.int rng ages) in
  let city = Array.init n (fun _ -> Random.State.int rng cities) in
  let balance = Array.init n (fun _ -> Random.State.int rng 1000) in
  let out =
    Array.mapi
      (fun src d ->
        let d = min d (n - 1) in
        let seen = Hashtbl.create d in
        while Hashtbl.length seen < d do
          let t = Random.State.int rng n in
          if t <> src then Hashtbl.replace seen t ()
        done;
        let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
        Array.sort compare a;
        a)
      (degrees size)
  in
  let post_by = Array.init size.posts (fun _ -> Random.State.int rng n) in
  let post_len = Array.init size.posts (fun _ -> 1 + Random.State.int rng 1000) in
  { size; age; city; balance; out; post_by; post_len }

let knows_count d = Array.fold_left (fun acc a -> acc + Array.length a) 0 d.out
let balance_sum d = Array.fold_left ( + ) 0 d.balance

(** Number of [(a)-[:KNOWS]->()-[:KNOWS]->(c)] matches from [pid]: the
    generator makes no self-loops, so the two edges of a match always
    differ and the count is the sum of the neighbours' out-degrees. *)
let two_hop d pid =
  Array.fold_left (fun acc b -> acc + Array.length d.out.(b)) 0 d.out.(pid)

(** The bulk loader's two CSV images (nodes, relationships). *)
let csv d =
  let nodes = Buffer.create (64 * (d.size.persons + d.size.posts)) in
  Buffer.add_string nodes "id,labels,pid,name,age,city,balance,postid,by,len,tid\n";
  for i = 0 to d.size.persons - 1 do
    Printf.bprintf nodes "p%d,Person,%d,%s,%d,city%d,%d,,,,\n" i i (name i)
      d.age.(i) d.city.(i) d.balance.(i)
  done;
  for j = 0 to d.size.posts - 1 do
    Printf.bprintf nodes "q%d,Post,,,,,,%d,%d,%d,\n" j j d.post_by.(j)
      d.post_len.(j)
  done;
  for k = 0 to d.size.tags - 1 do
    Printf.bprintf nodes "t%d,Tag,,tag%d,,,,,,,%d\n" k k k
  done;
  let rels = Buffer.create (24 * (d.size.knows + d.size.posts)) in
  Buffer.add_string rels "src,tgt,type\n";
  Array.iteri
    (fun i a -> Array.iter (fun j -> Printf.bprintf rels "p%d,p%d,KNOWS\n" i j) a)
    d.out;
  Array.iteri (fun j by -> Printf.bprintf rels "p%d,q%d,CREATED\n" by j) d.post_by;
  (Buffer.contents nodes, Buffer.contents rels)
