(** Graph isomorphism up to entity identity.

    Two property graphs are isomorphic when there is a bijection between
    their nodes preserving labels and properties, under which the
    relationship bags (source, target, type, properties) coincide.  The
    paper's figures specify result graphs only up to id renaming
    ("the output graph-table pairs are the same up to id renaming",
    Section 8.2), so this is the right notion of equality for checking
    reproduced experiments.

    The search is backtracking assignment, made practical for the
    fuzzer's larger result graphs (hundreds of structurally similar
    created nodes) by
    - Weisfeiler–Leman colour refinement: nodes start coloured by
      (labels, properties) and are repeatedly re-coloured by the
      multiset of (direction, type, properties, neighbour colour) of
      their incident relationships, until the partition stabilises.
      Candidates are drawn only from the matching colour class, and
      mismatching colour histograms reject without any search;
    - incremental consistency: when a node is assigned, the
      relationships between it and all previously assigned nodes must
      already correspond, so symmetric classes resolve greedily instead
      of being discovered factorially late. *)

open Cypher_util.Maps

(** Sort key summarising everything id-independent about a node. *)
let node_signature (n : Graph.node) =
  (Sset.elements n.labels, Props.bindings n.n_props)

type dir = Out | In

(** Interning key for refinement colours: the initial id-independent
    node signature, then (own colour, sorted incident descriptors with
    neighbour colours) per round. *)
type colour_key =
  | Sig of (string list * (string * Value.t) list)
  | Refined of int * (dir * string * (string * Value.t) list * int) list

(** [incidence g] is a function from node id to the list of incident
    relationship descriptors [(dir, type, props, other-endpoint)].  A
    self-loop contributes one [Out] and one [In] entry. *)
let incidence g =
  let tbl = Hashtbl.create 64 in
  let add id e =
    Hashtbl.replace tbl id
      (e :: Option.value ~default:[] (Hashtbl.find_opt tbl id))
  in
  List.iter
    (fun (r : Graph.rel) ->
      let props = Props.bindings r.r_props in
      add r.src (Out, r.r_type, props, r.tgt);
      add r.tgt (In, r.r_type, props, r.src))
    (Graph.rels g);
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

let rel_multiset_key mapping (r : Graph.rel) =
  let remap id = match Imap.find_opt id mapping with Some x -> x | None -> -1 in
  (remap r.src, remap r.tgt, r.r_type, Props.bindings r.r_props)

(** [isomorphic g1 g2] decides whether the two graphs are isomorphic. *)
let isomorphic g1 g2 =
  if Graph.node_count g1 <> Graph.node_count g2 then false
  else if Graph.rel_count g1 <> Graph.rel_count g2 then false
  else
    let nodes1 = Graph.nodes g1 in
    let nodes2 = Graph.nodes g2 in
    let inc1 = incidence g1 in
    let inc2 = incidence g2 in
    (* Colour refinement.  Colours are interned integers shared between
       the two graphs, so equal colours mean equal refinement keys.
       Interning goes through polymorphic [compare] (a map, not a
       hashtable) so NaN-valued properties compare equal to themselves,
       as they do everywhere else in this module. *)
    let module Kmap = Map.Make (struct
      type t = colour_key

      let compare = compare
    end) in
    let interned = ref Kmap.empty in
    let fresh = ref 0 in
    let intern k =
      match Kmap.find_opt k !interned with
      | Some c -> c
      | None ->
          let c = !fresh in
          incr fresh;
          interned := Kmap.add k c !interned;
          c
    in
    let colour1 = Hashtbl.create 64 in
    let colour2 = Hashtbl.create 64 in
    List.iter
      (fun (n : Graph.node) ->
        Hashtbl.replace colour1 n.n_id (intern (Sig (node_signature n))))
      nodes1;
    List.iter
      (fun (n : Graph.node) ->
        Hashtbl.replace colour2 n.n_id (intern (Sig (node_signature n))))
      nodes2;
    let histogram colours nodes =
      List.sort compare
        (List.map (fun (n : Graph.node) -> Hashtbl.find colours n.n_id) nodes)
    in
    let refine colours inc nodes =
      let next = Hashtbl.create (Hashtbl.length colours) in
      List.iter
        (fun (n : Graph.node) ->
          let nbrs =
            List.sort compare
              (List.map
                 (fun (d, t, p, o) -> (d, t, p, Hashtbl.find colours o))
                 (inc n.n_id))
          in
          Hashtbl.replace next n.n_id
            (intern (Refined (Hashtbl.find colours n.n_id, nbrs))))
        nodes;
      next
    in
    let distinct colours =
      Hashtbl.fold (fun _ c acc -> Iset.add c acc) colours Iset.empty
      |> Iset.cardinal
    in
    let rec stabilise c1 c2 =
      if histogram c1 nodes1 <> histogram c2 nodes2 then None
      else
        let before = distinct c1 in
        let c1' = refine c1 inc1 nodes1 in
        let c2' = refine c2 inc2 nodes2 in
        if distinct c1' = before then Some (c1, c2) else stabilise c1' c2'
    in
    match stabilise colour1 colour2 with
    | None -> false
    | Some (colour1, colour2) ->
        (* Candidate classes in g2, indexed by final colour. *)
        let classes = Hashtbl.create 64 in
        List.iter
          (fun (n : Graph.node) ->
            let c = Hashtbl.find colour2 n.n_id in
            Hashtbl.replace classes c
              (n :: Option.value ~default:[] (Hashtbl.find_opt classes c)))
          nodes2;
        (* sizes are consulted O(n^2) times by the ordering pass below,
           so walking the class list each time turns large symmetric
           classes (thousands of identical created nodes) into minutes *)
        let class_sizes = Hashtbl.create 64 in
        Hashtbl.iter
          (fun c members -> Hashtbl.replace class_sizes c (List.length members))
          classes;
        let class_size c =
          Option.value ~default:0 (Hashtbl.find_opt class_sizes c)
        in
        (* Assignment order: prefer nodes connected to already ordered
           ones (early edge pruning), tie-broken by smallest candidate
           class (most constrained first).  Selection is kept
           incremental — a placement only rescores the placed node's
           neighbours — because an argmax scan over all remaining nodes
           per placement is O(n^2) and dominates whole-run time on the
           fuzzer's multi-thousand-node result graphs. *)
        let order nodes =
          let module Q = Set.Make (struct
            (* (-anchored, class size, node id): Set.min_elt is the
               most-anchored, then most-constrained, then lowest-id *)
            type t = int * int * int

            let compare = compare
          end) in
          let by_id = Hashtbl.create 64 in
          List.iter
            (fun (n : Graph.node) -> Hashtbl.replace by_id n.n_id n)
            nodes;
          let anchored = Hashtbl.create 64 in
          let anchors n_id =
            Option.value ~default:0 (Hashtbl.find_opt anchored n_id)
          in
          let key (n : Graph.node) =
            (-anchors n.n_id, class_size (Hashtbl.find colour1 n.n_id), n.n_id)
          in
          let queue =
            ref (List.fold_left (fun q n -> Q.add (key n) q) Q.empty nodes)
          in
          let out = ref [] in
          while not (Q.is_empty !queue) do
            let ((_, _, id) as k) = Q.min_elt !queue in
            queue := Q.remove k !queue;
            let best = Hashtbl.find by_id id in
            Hashtbl.remove by_id id;
            out := best :: !out;
            List.iter
              (fun (_, _, _, o) ->
                match Hashtbl.find_opt by_id o with
                | None -> () (* already placed *)
                | Some nbr ->
                    queue := Q.remove (key nbr) !queue;
                    Hashtbl.replace anchored o (1 + anchors o);
                    queue := Q.add (key nbr) !queue)
              (inc1 id)
          done;
          List.rev !out
        in
        let ordered1 = order nodes1 in
        (* When assigning [n1 -> n2], the relationships between [n1] and
           every already assigned node must correspond as multisets.
           Completed assignments have therefore checked every
           relationship, but we keep the final whole-bag comparison as a
           cheap safety net. *)
        let consistent mapping used (n1 : Graph.node) (n2 : Graph.node) =
          let mapping' = Imap.add n1.n_id n2.n_id mapping in
          let used' = Iset.add n2.n_id used in
          let k1 =
            List.filter_map
              (fun (d, t, p, o) ->
                Option.map (fun m -> (d, t, p, m)) (Imap.find_opt o mapping'))
              (inc1 n1.n_id)
            |> List.sort compare
          in
          let k2 =
            List.filter_map
              (fun (d, t, p, o) ->
                if Iset.mem o used' then Some (d, t, p, o) else None)
              (inc2 n2.n_id)
            |> List.sort compare
          in
          k1 = k2
        in
        let rels_ok mapping =
          let key1 =
            List.sort compare
              (List.map (rel_multiset_key mapping) (Graph.rels g1))
          in
          let identity_mapping =
            List.fold_left
              (fun m (n : Graph.node) -> Imap.add n.n_id n.n_id m)
              Imap.empty nodes2
          in
          let key2 =
            List.sort compare
              (List.map (rel_multiset_key identity_mapping) (Graph.rels g2))
          in
          key1 = key2
        in
        let rec assign mapping used = function
          | [] -> rels_ok mapping
          | (n1 : Graph.node) :: rest ->
              let c = Hashtbl.find colour1 n1.n_id in
              List.exists
                (fun (n2 : Graph.node) ->
                  (not (Iset.mem n2.n_id used))
                  && consistent mapping used n1 n2
                  && assign
                       (Imap.add n1.n_id n2.n_id mapping)
                       (Iset.add n2.n_id used)
                       rest)
                (Option.value ~default:[] (Hashtbl.find_opt classes c))
        in
        assign Imap.empty Iset.empty ordered1
