(** Shared helpers for the test suite. *)

open Cypher_graph
open Cypher_table
open Cypher_core

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal_strict

let tri_testable : Tri.t Alcotest.testable = Alcotest.testable Tri.pp Tri.equal

let record_testable : Record.t Alcotest.testable =
  Alcotest.testable Record.pp Record.equal

let graph_iso_testable : Graph.t Alcotest.testable =
  Alcotest.testable Graph.pp Iso.isomorphic

let case name f = Alcotest.test_case name `Quick f

(** [fixture rel] is the path of the fixture [rel], named relative to
    the test directory ([corpus], [journals/...],
    [../examples/data/orders.csv]).  [dune runtest] runs the suite there;
    run from the repository root (as [dune exec test/test_main.exe]
    does) the same fixture is under [test/]. *)
let fixture rel =
  let from_root = Filename.concat "test" rel in
  if Sys.file_exists rel || not (Sys.file_exists from_root) then rel else from_root

(** [contains_substring s sub] is true when [sub] occurs in [s]. *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(** Runs a statement, failing the test on error. *)
let run ?(config = Config.revised) graph src =
  match Api.run_string ~config graph src with
  | Ok o -> o
  | Error e -> Alcotest.failf "query failed: %s\nquery: %s" (Errors.to_string e) src

let run_graph ?config graph src = (run ?config graph src).Api.r_graph
let run_table ?config graph src = (run ?config graph src).Api.r_table

(** [run_cached ?config graph src] is the second run of [src] in one
    {!Session} on [graph], compiled through {!Session.prepare} and
    executed with {!Session.run_prepared_on} as the server serves every
    statement: a plan-cache hit that reuses the compiled statement and
    its memoized match plans.  Fails unless the second compile was a
    hit. *)
let run_cached ?(config = Config.revised) graph src : Api.result =
  let s = Session.create ~config graph in
  let once () =
    match Result.bind (Session.prepare s src) (Session.run_prepared_on s graph) with
    | Ok r -> r
    | Error e -> Alcotest.failf "query failed: %s\nquery: %s" (Errors.to_string e) src
  in
  ignore (once () : Api.result);
  let r = once () in
  Alcotest.(check int) "plan-cache hits" 1 (Session.cache_stats s).Plan_cache.hits;
  r

(** [on_worker f] runs [f ()] on a reader-pool worker domain through
    [Pool.submit ~parallelism:2], as the server's reader pool runs every
    read, and returns its value on the calling domain.  Fails if the
    job ran on the calling domain. *)
let on_worker f =
  let caller = Domain.self () in
  let ran_on, v =
    Cypher_util.Pool.await
      (Cypher_util.Pool.submit ~parallelism:2 (fun () ->
           let v = f () in
           (Domain.self (), v)))
  in
  if ran_on = caller then Alcotest.fail "the job ran on the calling domain";
  v

(** Runs a statement and asserts it fails, returning the error. *)
let run_err ?(config = Config.revised) graph src : Errors.t =
  match Api.run_string ~config graph src with
  | Ok _ -> Alcotest.failf "query unexpectedly succeeded: %s" src
  | Error e -> e

(** Builds a graph from Cypher CREATE statements. *)
let graph_of src = run_graph Graph.empty src

(** A graph with registered property indexes, entities and a gap in
    its id space: the base a batch lands on after the first. *)
let indexed_base () =
  let g = graph_of "CREATE (:A {k: 1})-[:R]->(:B {w: 2.0}), (:A:B {k: 1.0})" in
  let g = Graph.add_prop_index ~label:"A" ~key:"k" g in
  let g = Graph.remove_node_detach g (List.hd (Graph.node_ids g)) in
  Graph.add_prop_index ~label:"B" ~key:"w" g

(** The single values of a one-column result table. *)
let column t name = List.map (fun r -> Record.find r name) (Table.rows t)

let first_cell t =
  match Table.rows t with
  | row :: _ -> (
      match Table.columns t with
      | c :: _ -> Record.find row c
      | [] -> Alcotest.fail "result table has no columns")
  | [] -> Alcotest.fail "result table has no rows"

(** Asserts the table has exactly the given number of rows. *)
let check_rows name n t = Alcotest.(check int) name n (Table.row_count t)

let check_value name expected actual =
  Alcotest.check value_testable name expected actual

let vint n = Value.Int n
let vstr s = Value.String s
let vbool b = Value.Bool b
let vnull = Value.Null
let vlist l = Value.List l

(* ------------------------------------------------------------------ *)
(* Graph equality under every read view                               *)
(* ------------------------------------------------------------------ *)

(** [check_adjacency msg g] fails unless every adjacency view of [g]
    (untyped and typed id sets, incident relationships, degree) agrees
    with a scan of [g]'s relationships. *)
let check_adjacency msg g =
  match Cypher_fuzz.Oracles.adjacency_matches_scan g with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" msg m

(** The relationship types of [g] with their counts, alphabetically, by
    a scan of its relationships — the reference for the stored counts
    behind {!Graph.type_histogram} and {!Graph.type_count}. *)
let scanned_type_histogram g =
  Graph.fold_rels
    (fun r m ->
      Cypher_util.Maps.Smap.update r.Graph.r_type
        (fun c -> Some (1 + Option.value c ~default:0))
        m)
    g Cypher_util.Maps.Smap.empty
  |> Cypher_util.Maps.Smap.bindings

(** [same_bits x y]: equal values of the same type, floats compared bit
    for bit at any depth (a nan's sign, which every printer hides). *)
let rec same_bits x y =
  match (x, y) with
  | Value.Float f, Value.Float f' -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
  | Value.Int i, Value.Int i' -> Int.equal i i'
  | Value.List l, Value.List l' -> List.equal same_bits l l'
  | Value.Map m, Value.Map m' -> Cypher_util.Maps.Smap.equal same_bits m m'
  | (Value.Int _ | Value.Float _ | Value.List _ | Value.Map _), _ -> false
  | _ -> Value.equal_strict x y

(** [check_same_graph msg expected actual] fails unless the two graphs
    agree on everything a read can observe: the printed graph, ids and
    the id supply, every property value bit for bit, each graph's
    maintained node count against its node map, label and type
    histograms and every registered property index bucket; and each
    graph's adjacency views agree with a scan of its own
    relationships. *)
let check_same_graph msg expected actual =
  let check_eq what eq a b = if not (eq a b) then Alcotest.failf "%s: %s differ" msg what in
  Alcotest.(check string) (msg ^ ": graph") (Graph.to_string expected) (Graph.to_string actual);
  check_eq "node ids" ( = ) (Graph.node_ids expected) (Graph.node_ids actual);
  check_eq "rel ids" ( = ) (Graph.rel_ids expected) (Graph.rel_ids actual);
  let same_props (k, x) (k', y) = String.equal k k' && same_bits x y in
  let props what id p p' =
    check_eq (Printf.sprintf "%s %d properties" what id) (List.equal same_props)
      (Props.bindings p) (Props.bindings p')
  in
  Graph.fold_nodes
    (fun n () -> props "node" n.Graph.n_id n.Graph.n_props (Graph.node_props_of actual n.Graph.n_id))
    expected ();
  Graph.fold_rels
    (fun r () -> props "rel" r.Graph.r_id r.Graph.r_props (Graph.rel_props_of actual r.Graph.r_id))
    expected ();
  List.iter
    (fun g ->
      check_eq "node count" ( = ) (Graph.node_count g) (List.length (Graph.node_ids g)))
    [ expected; actual ];
  check_eq "next_id" ( = ) (Graph.next_id expected) (Graph.next_id actual);
  check_eq "label histogram" ( = ) (Graph.label_histogram expected) (Graph.label_histogram actual);
  check_eq "type histogram" ( = ) (Graph.type_histogram expected) (Graph.type_histogram actual);
  check_eq "index keys" ( = ) (Graph.prop_index_keys expected) (Graph.prop_index_keys actual);
  List.iter
    (fun (label, key) ->
      Graph.fold_nodes
        (fun n () ->
          let v = Props.get n.Graph.n_props key in
          let q g = Graph.nodes_with_prop g ~label ~key v in
          check_eq (Printf.sprintf "index %s(%s) bucket" label key) ( = ) (q expected) (q actual))
        expected ())
    (Graph.prop_index_keys expected);
  check_adjacency (msg ^ " (expected)") expected;
  check_adjacency (msg ^ " (actual)") actual

(** A seeded random entity script over a graph whose node ids are
    [nodes]: each step is a node (0–2 labels of three, a few properties
    of mixed numeric type) or a relationship between any two known
    nodes — self-loops and parallel edges included — with optional
    properties.  Returns the steps in order. *)
type step =
  | Step_node of string list * Props.t
  | Step_rel of int * int * string * Props.t

let random_steps rng ~nodes ~next_id ~count =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let value () =
    match Random.State.int rng 4 with
    | 0 -> Value.Int (Random.State.int rng 5)
    | 1 -> Value.Float (float_of_int (Random.State.int rng 5))
    | 2 -> Value.String (pick [| "x"; "y" |])
    | _ -> Value.Float 0.5
  in
  let props () =
    Props.of_list
      (List.filter_map
         (fun k -> if Random.State.bool rng then Some (k, value ()) else None)
         [ "k"; "w" ])
  in
  let known = ref nodes and next = ref next_id in
  List.init count (fun _ ->
      let id = !next in
      incr next;
      if !known = [||] || Random.State.int rng 3 = 0 then begin
        known := Array.append !known [| id |];
        let labels = List.filter (fun _ -> Random.State.int rng 3 = 0) [ "A"; "B"; "C" ] in
        Step_node (labels, props ())
      end
      else
        Step_rel
          (pick !known, pick !known, pick [| "R"; "S"; "T" |],
           if Random.State.bool rng then props () else Props.empty))

(** The steps applied one entity at a time. *)
let apply_steps g steps =
  List.fold_left
    (fun g -> function
      | Step_node (labels, props) -> snd (Graph.create_node ~labels ~props g)
      | Step_rel (src, tgt, r_type, props) -> snd (Graph.create_rel ~src ~tgt ~r_type ~props g))
    g steps

(** The steps applied as one {!Graph.add_batch}. *)
let batch_steps g steps =
  let next = Graph.next_id g in
  let nodes, rels, _ =
    List.fold_left
      (fun (ns, rs, id) -> function
        | Step_node (labels, n_props) ->
            ({ Graph.n_id = id; labels = Cypher_util.Maps.Sset.of_list labels; n_props } :: ns, rs, id + 1)
        | Step_rel (src, tgt, r_type, r_props) ->
            (ns, { Graph.r_id = id; src; tgt; r_type; r_props } :: rs, id + 1))
      ([], [], next) steps
  in
  Graph.add_batch g (Array.of_list (List.rev nodes)) (Array.of_list (List.rev rels))
