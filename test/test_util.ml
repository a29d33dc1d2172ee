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

let run_graph ?config graph src = (run ?config graph src).Api.graph
let run_table ?config graph src = (run ?config graph src).Api.table

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

(** [check_same_graph msg expected actual] fails unless the two graphs
    agree on everything a read can observe: the printed graph, ids and
    the id supply, label and type histograms, every registered property
    index bucket, and plain and typed adjacency of every node. *)
let check_same_graph msg expected actual =
  let check_eq what eq a b = if not (eq a b) then Alcotest.failf "%s: %s differ" msg what in
  Alcotest.(check string) (msg ^ ": graph") (Graph.to_string expected) (Graph.to_string actual);
  check_eq "node ids" ( = ) (Graph.node_ids expected) (Graph.node_ids actual);
  check_eq "rel ids" ( = ) (Graph.rel_ids expected) (Graph.rel_ids actual);
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
  let types = List.map fst (Graph.type_histogram expected) in
  Graph.fold_nodes
    (fun n () ->
      let id = n.Graph.n_id in
      let ids f g = Cypher_util.Maps.Iset.elements (f g id) in
      check_eq "out adjacency" ( = ) (ids Graph.out_rel_ids expected) (ids Graph.out_rel_ids actual);
      check_eq "in adjacency" ( = ) (ids Graph.in_rel_ids expected) (ids Graph.in_rel_ids actual);
      List.iter
        (fun ty ->
          let typed f g = Cypher_util.Maps.Iset.elements (f g id ty) in
          check_eq "typed out adjacency" ( = )
            (typed Graph.out_rel_ids_typed expected)
            (typed Graph.out_rel_ids_typed actual);
          check_eq "typed in adjacency" ( = )
            (typed Graph.in_rel_ids_typed expected)
            (typed Graph.in_rel_ids_typed actual))
        types)
    expected ()

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
  Graph.add_batch g (List.rev nodes) (List.rev rels)
