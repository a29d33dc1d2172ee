(** The collapsibility quotient of Section 8.2.

    Given the output of MERGE ALL, nodes created by the clause are
    *collapsible* (Definition 1) when they carry the same label set and
    the same property map — pre-existing nodes only collapse with
    themselves (condition iii).  Relationships created by the clause are
    collapsible (Definition 2) when they have the same type and
    properties and their endpoints are collapsible.  The quotient graph
    keeps one representative per equivalence class and remaps
    relationship endpoints and driving-table references.

    The position flags implement the weaker proposals of Section 6:
    when [node_pos_matters] is true, only nodes created for the *same
    position* of the input pattern may collapse (Weak Collapse); likewise
    [rel_pos_matters] for relationships (Weak Collapse and Collapse).
    MERGE SAME (Strong Collapse) sets both to false.

    Equivalence classes are keyed structurally (label sets, property
    maps and representative ids compared directly) rather than through
    printed key strings: MERGE workloads quotient thousands of created
    entities per clause, and formatting every property map dominated the
    clause's running time.  Keys are pre-bucketed by an
    equality-respecting hash ({!Value.hash_total} agrees with the total
    order's numeric [Int]/[Float] equality), so the full structural
    comparison runs only within a bucket. *)

open Cypher_util.Maps
open Cypher_graph

(** Position of a created entity inside the MERGE pattern tuple:
    (pattern index, element index within that pattern). *)
type position = int * int

let compare_pos (a : position option) (b : position option) =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some (i1, j1), Some (i2, j2) ->
      let c = Int.compare i1 i2 in
      if c <> 0 then c else Int.compare j1 j2

let hash_pos = function
  | None -> 0x517cc1b7
  | Some (i, j) -> (((i * 31) + j) * 31) + 1

let hash_sset (s : Sset.t) =
  Sset.fold (fun l acc -> (acc * 31) + Hashtbl.hash l) s 0x85eb_ca6b

(** Collapsibility class of a created node (Definition 1). *)
module Nkey = struct
  type t = { pos : position option; labels : Sset.t; props : Props.t }

  let compare a b =
    let c = compare_pos a.pos b.pos in
    if c <> 0 then c
    else
      let c = Sset.compare a.labels b.labels in
      if c <> 0 then c else Props.compare a.props b.props

  let hash k =
    ((hash_pos k.pos * 31) + hash_sset k.labels * 31) + Props.hash k.props
end

(** Collapsibility class of a created relationship (Definition 2):
    endpoints are compared by class representative. *)
module Rkey = struct
  type t = {
    pos : position option;
    r_type : string;
    props : Props.t;
    src : int;
    tgt : int;
  }

  let compare a b =
    let c = compare_pos a.pos b.pos in
    if c <> 0 then c
    else
      let c = String.compare a.r_type b.r_type in
      if c <> 0 then c
      else
        let c = Int.compare a.src b.src in
        if c <> 0 then c
        else
          let c = Int.compare a.tgt b.tgt in
          if c <> 0 then c else Props.compare a.props b.props

  let hash k =
    ((((hash_pos k.pos * 31) + Hashtbl.hash k.r_type * 31) + (k.src * 31)
     + k.tgt)
     * 31)
    + Props.hash k.props
end

(** Hash-bucketed class table: buckets keyed by the key's hash, full
    structural comparison only among bucket members.  [classify] returns
    the class representative, registering [id] as a fresh class when the
    key is new. *)
let classify (type k) (compare : k -> k -> int) (hash : k -> int)
    (classes : (int, (k * int) list ref) Hashtbl.t) (key : k) (id : int) : int
    =
  let h = hash key in
  match Hashtbl.find_opt classes h with
  | None ->
      Hashtbl.add classes h (ref [ (key, id) ]);
      id
  | Some bucket -> (
      match List.find_opt (fun (k, _) -> compare k key = 0) !bucket with
      | Some (_, rep) -> rep
      | None ->
          bucket := (key, id) :: !bucket;
          id)

type result = {
  graph : Graph.t;
  node_map : int -> int;  (** entity id → class representative *)
  rel_map : int -> int;
}

(* ids are unique, so ordering by id alone is a total order on the
   created-entity lists (and much cheaper than polymorphic compare) *)
let by_id (a, _) (b, _) = Int.compare a b

let identity_result graph =
  { graph; node_map = (fun id -> id); rel_map = (fun id -> id) }

(** [apply g ~new_nodes ~new_rels ~node_pos_matters ~rel_pos_matters]
    quotients [g] by collapsibility of the listed created entities. *)
let apply (g : Graph.t) ~(new_nodes : (int * position) list)
    ~(new_rels : (int * position) list) ~node_pos_matters ~rel_pos_matters :
    result =
  (* --- node classes ------------------------------------------------ *)
  (* entities are visited in ascending id order, so the first member of
     each class — the first-created entity — becomes its representative *)
  let node_reps : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let node_classes = Hashtbl.create 64 in
  List.iter
    (fun (id, pos) ->
      match Graph.node g id with
      | None -> ()
      | Some n ->
          let key =
            {
              Nkey.pos = (if node_pos_matters then Some pos else None);
              labels = n.Graph.labels;
              props = n.Graph.n_props;
            }
          in
          let rep = classify Nkey.compare Nkey.hash node_classes key id in
          Hashtbl.replace node_reps id rep)
    (List.sort by_id new_nodes);
  let node_map id =
    match Hashtbl.find_opt node_reps id with
    | None -> id (* pre-existing node: collapses only with itself *)
    | Some rep -> rep
  in
  (* --- relationship classes ---------------------------------------- *)
  let rel_reps : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rel_classes = Hashtbl.create 64 in
  List.iter
    (fun (id, pos) ->
      match Graph.rel g id with
      | None -> ()
      | Some r ->
          let key =
            {
              Rkey.pos = (if rel_pos_matters then Some pos else None);
              r_type = r.Graph.r_type;
              props = r.Graph.r_props;
              src = node_map r.Graph.src;
              tgt = node_map r.Graph.tgt;
            }
          in
          let rep = classify Rkey.compare Rkey.hash rel_classes key id in
          Hashtbl.replace rel_reps id rep)
    (List.sort by_id new_rels);
  let rel_map id =
    match Hashtbl.find_opt rel_reps id with None -> id | Some rep -> rep
  in
  (* --- rebuild ------------------------------------------------------ *)
  (* every class a singleton: the quotient is [g] itself *)
  let collapses reps = Hashtbl.fold (fun id rep acc -> acc || id <> rep) reps false in
  if not (collapses node_reps || collapses rel_reps) then identity_result g
  else
    let keep_node (n : Graph.node) = node_map n.Graph.n_id = n.Graph.n_id in
    let keep_rel (r : Graph.rel) = rel_map r.Graph.r_id = r.Graph.r_id in
    let nodes = List.filter keep_node (Graph.nodes g) in
    let rels =
      List.filter_map
        (fun (r : Graph.rel) ->
          if keep_rel r then
            Some { r with Graph.src = node_map r.Graph.src; tgt = node_map r.Graph.tgt }
          else None)
        (Graph.rels g)
    in
    let graph =
      Graph.rebuild
        ~prop_indexes:(Graph.prop_index_keys g)
        ~next_id:(Graph.next_id g) nodes rels
    in
    { graph; node_map; rel_map }
