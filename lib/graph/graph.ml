(** The property graph store.

    Implements the paper's formal model G = 〈N, R, src, tgt, ι, λ, τ〉
    (Section 8.2) as an immutable, persistent structure:

    - N is the domain of [nodes]; λ gives each node's label set and ι its
      property map;
    - R is the domain of [rels]; src/tgt/τ/ι are the fields of {!rel}.

    Immutability is what makes the revised, atomic update semantics easy
    to implement correctly: clauses evaluate all their reads against the
    input graph and produce a fresh output graph in one step.

    The store additionally supports the *legacy* (Cypher 9) behaviours the
    paper criticises: {!remove_node_force} can leave dangling
    relationships (Section 4.2), and deleted entities leave tombstones so
    that a driving table can still reference them (the "empty node"
    observation of Section 4.2). *)

open Cypher_util.Maps

type node_id = Value.node_id
type rel_id = Value.rel_id

type node = { n_id : node_id; labels : Sset.t; n_props : Props.t }

type rel = {
  r_id : rel_id;
  src : node_id;
  tgt : node_id;
  r_type : string;
  r_props : Props.t;
}

(** What kind of entity a tombstoned id used to be. *)
type tomb = Tomb_node | Tomb_rel

(** Maps keyed by property values, under the total value order — the
    exact-value property indexes below are served from these. *)
module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

type t = {
  nodes : node Imap.t;
  rels : rel Imap.t;
  out_adj : Iset.t Imap.t; (* node id -> ids of rels leaving it *)
  in_adj : Iset.t Imap.t; (* node id -> ids of rels entering it *)
  out_typed : Iset.t Smap.t Imap.t; (* node id -> type -> rels leaving it *)
  in_typed : Iset.t Smap.t Imap.t; (* node id -> type -> rels entering it *)
  label_index : Iset.t Smap.t; (* label -> ids of nodes carrying it *)
  type_index : Iset.t Smap.t; (* type -> ids of rels carrying it *)
  prop_index : Iset.t Vmap.t Smap.t Smap.t;
      (* label -> key -> value -> node ids; an entry for (label, key)
         exists iff that index has been registered, even when empty *)
  dangling : Iset.t;
      (* rels with a missing endpoint — populated only by a legacy
         force-delete; maintained so the per-statement well-formedness
         check is O(1) instead of a full relationship sweep *)
  next_id : int;
  tombs : tomb Imap.t;
}

let empty =
  {
    nodes = Imap.empty;
    rels = Imap.empty;
    out_adj = Imap.empty;
    in_adj = Imap.empty;
    out_typed = Imap.empty;
    in_typed = Imap.empty;
    label_index = Smap.empty;
    type_index = Smap.empty;
    prop_index = Smap.empty;
    dangling = Iset.empty;
    next_id = 0;
    tombs = Imap.empty;
  }

(* --- label index maintenance -------------------------------------- *)

let index_add label id idx =
  Smap.update label
    (function None -> Some (Iset.singleton id) | Some s -> Some (Iset.add id s))
    idx

let index_remove label id idx =
  Smap.update label
    (function
      | None -> None
      | Some s ->
          let s = Iset.remove id s in
          if Iset.is_empty s then None else Some s)
    idx

let index_node (n : node) idx =
  Sset.fold (fun l idx -> index_add l n.n_id idx) n.labels idx

let unindex_node (n : node) idx =
  Sset.fold (fun l idx -> index_remove l n.n_id idx) n.labels idx

(** Adjusts the index when a node's label set changes. *)
let reindex ~old_labels ~new_labels id idx =
  let idx =
    Sset.fold
      (fun l idx -> index_remove l id idx)
      (Sset.diff old_labels new_labels)
      idx
  in
  Sset.fold
    (fun l idx -> index_add l id idx)
    (Sset.diff new_labels old_labels)
    idx

(* --- typed adjacency maintenance ---------------------------------- *)

let tmap_find id m = match Imap.find_opt id m with Some sm -> sm | None -> Smap.empty

let tset_find ty sm =
  match Smap.find_opt ty sm with Some s -> s | None -> Iset.empty

let tadj_add id ty rid m =
  (* single outer-map traversal: creates run hot in MERGE workloads *)
  Imap.update id
    (fun sm ->
      let sm = match sm with Some sm -> sm | None -> Smap.empty in
      Some (Smap.add ty (Iset.add rid (tset_find ty sm)) sm))
    m

let tadj_remove id ty rid m =
  match Imap.find_opt id m with
  | None -> m
  | Some sm ->
      let s = Iset.remove rid (tset_find ty sm) in
      let sm = if Iset.is_empty s then Smap.remove ty sm else Smap.add ty s sm in
      if Smap.is_empty sm then Imap.remove id m else Imap.add id sm m

(* --- property index maintenance ------------------------------------ *)

let vmap_add v id vmap =
  Vmap.update v
    (function None -> Some (Iset.singleton id) | Some s -> Some (Iset.add id s))
    vmap

let vmap_remove v id vmap =
  Vmap.update v
    (function
      | None -> None
      | Some s ->
          let s = Iset.remove id s in
          if Iset.is_empty s then None else Some s)
    vmap

(** Folds [f] over the registered (key, value map) pairs of the labels a
    node carries.  Null-valued (= absent) properties are never indexed:
    a [{k: null}] pattern never matches, so there is nothing to serve. *)
let pindex_fold_node f (n : node) pidx =
  if Smap.is_empty pidx then pidx
  else
    Sset.fold
      (fun l pidx ->
        match Smap.find_opt l pidx with
        | None -> pidx
        | Some keys ->
            Smap.add l
              (Smap.mapi
                 (fun key vmap ->
                   match Props.get n.n_props key with
                   | Value.Null -> vmap
                   | v -> f v n.n_id vmap)
                 keys)
              pidx)
      n.labels pidx

let pindex_node_add n pidx = pindex_fold_node vmap_add n pidx
let pindex_node_remove n pidx = pindex_fold_node vmap_remove n pidx

(* ------------------------------------------------------------------ *)
(* Lookup                                                             *)
(* ------------------------------------------------------------------ *)

let node g id = Imap.find_opt id g.nodes
let rel g id = Imap.find_opt id g.rels

let node_exn g id =
  match node g id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Graph.node_exn: no node %d" id)

let rel_exn g id =
  match rel g id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Graph.rel_exn: no relationship %d" id)

let has_node g id = Imap.mem id g.nodes
let next_id g = g.next_id
let tombstones g = g.tombs
let has_rel g id = Imap.mem id g.rels
let is_tombstoned g id = Imap.mem id g.tombs
let tombstone g id = Imap.find_opt id g.tombs
let node_count g = Imap.cardinal g.nodes
let rel_count g = Imap.cardinal g.rels
let nodes g = List.map snd (Imap.bindings g.nodes)
let rels g = List.map snd (Imap.bindings g.rels)
let node_ids g = List.map fst (Imap.bindings g.nodes)
let rel_ids g = List.map fst (Imap.bindings g.rels)
let fold_nodes f g acc = Imap.fold (fun _ n acc -> f n acc) g.nodes acc
let fold_rels f g acc = Imap.fold (fun _ r acc -> f r acc) g.rels acc

let adj_find id m = match Imap.find_opt id m with Some s -> s | None -> Iset.empty

(** Cumulative wall-time spent building read snapshots, process-wide.
    The store keeps a single read path (the persistent maps), so nothing
    is ever built and this is the constant [0L]; it stays for the wire
    benchmark's trace, which still reads it. *)
let csr_build_ns_total () = 0L

(** Relationships leaving node [id], in id order. *)
let out_rels g id =
  Iset.fold (fun r acc -> rel_exn g r :: acc) (adj_find id g.out_adj) []
  |> List.rev

(** Relationships entering node [id], in id order. *)
let in_rels g id =
  Iset.fold (fun r acc -> rel_exn g r :: acc) (adj_find id g.in_adj) []
  |> List.rev

(** All relationships incident to node [id] (self-loops reported once). *)
let incident_rels g id =
  let s = Iset.union (adj_find id g.out_adj) (adj_find id g.in_adj) in
  Iset.fold (fun r acc -> rel_exn g r :: acc) s [] |> List.rev

let degree g id = Iset.cardinal (Iset.union (adj_find id g.out_adj) (adj_find id g.in_adj))

(* --- typed adjacency views ----------------------------------------- *)

let rels_of_set g s = Iset.fold (fun r acc -> rel_exn g r :: acc) s [] |> List.rev

(* raw adjacency id-sets, for callers that fold without materialising
   relationship lists (the matcher's hop enumeration) *)
let out_rel_ids g id = adj_find id g.out_adj
let in_rel_ids g id = adj_find id g.in_adj
let out_rel_ids_typed g id ty = tset_find ty (tmap_find id g.out_typed)
let in_rel_ids_typed g id ty = tset_find ty (tmap_find id g.in_typed)

(** Relationships of type [ty] leaving node [id], in id order — served
    from the typed adjacency map, so a hop with a type label never
    enumerates differently-typed neighbours. *)
let out_rels_typed g id ty = rels_of_set g (tset_find ty (tmap_find id g.out_typed))

(** Relationships of type [ty] entering node [id], in id order. *)
let in_rels_typed g id ty = rels_of_set g (tset_find ty (tmap_find id g.in_typed))

(** Relationships of type [ty] incident to node [id] (self-loops once). *)
let incident_rels_typed g id ty =
  rels_of_set g
    (Iset.union
       (tset_find ty (tmap_find id g.out_typed))
       (tset_find ty (tmap_find id g.in_typed)))

let out_degree_typed g id ty = Iset.cardinal (tset_find ty (tmap_find id g.out_typed))
let in_degree_typed g id ty = Iset.cardinal (tset_find ty (tmap_find id g.in_typed))

(** All relationships carrying type [ty], in id order — from the type
    index. *)
let rels_with_type g ty = rels_of_set g (tset_find ty g.type_index)

let type_count g ty = Iset.cardinal (tset_find ty g.type_index)

let label_count g label =
  match Smap.find_opt label g.label_index with
  | None -> 0
  | Some s -> Iset.cardinal s

(** Relationships whose source or target node no longer exists — only
    possible after a legacy force-delete; a well-formed graph has none.
    Served from a maintained set: the statement-boundary validity check
    runs on every query, so it must not sweep all relationships. *)
let dangling_rels g = rels_of_set g g.dangling

let is_wellformed g = Iset.is_empty g.dangling

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create_node ?(labels = []) ?(props = Props.empty) g =
  let id = g.next_id in
  let n = { n_id = id; labels = sset_of_list labels; n_props = props } in
  ( id,
    {
      g with
      nodes = Imap.add id n g.nodes;
      label_index = index_node n g.label_index;
      prop_index = pindex_node_add n g.prop_index;
      next_id = id + 1;
    } )

let create_rel ~src ~tgt ~r_type ?(props = Props.empty) g =
  if not (has_node g src) then
    invalid_arg (Printf.sprintf "Graph.create_rel: no source node %d" src);
  if not (has_node g tgt) then
    invalid_arg (Printf.sprintf "Graph.create_rel: no target node %d" tgt);
  let id = g.next_id in
  let r = { r_id = id; src; tgt; r_type; r_props = props } in
  let adj_insert n m =
    Imap.update n
      (function
        | Some s -> Some (Iset.add id s) | None -> Some (Iset.singleton id))
      m
  in
  let out_adj = adj_insert src g.out_adj in
  let in_adj = adj_insert tgt g.in_adj in
  ( id,
    {
      g with
      rels = Imap.add id r g.rels;
      out_adj;
      in_adj;
      out_typed = tadj_add src r_type id g.out_typed;
      in_typed = tadj_add tgt r_type id g.in_typed;
      type_index = index_add r_type id g.type_index;
      next_id = id + 1;
    } )

(* ------------------------------------------------------------------ *)
(* Batch construction                                                 *)
(* ------------------------------------------------------------------ *)

(* Loading a graph one [create_node]/[create_rel] at a time inserts into
   every index once per entity: each insertion at a random key copies a
   path of the persistent tree, and in a graph too big for the minor
   heap most of those copies are promoted before they die, leaving the
   major heap half slack.  The batch path below builds each structure
   once instead: maps take their new keys in ascending order (only the
   right spine is ever copied), and every id set is built whole from a
   sorted run of the batch, then unioned into the set already there. *)

(* [runs same a lo hi f] calls [f i j] for each maximal run
   [a.(i) .. a.(j - 1)] of [a.(lo) .. a.(hi - 1)] whose elements [same]
   relates to the run's first *)
let runs same a lo hi f =
  let i = ref lo in
  while !i < hi do
    let j = ref (!i + 1) in
    while !j < hi && same a.(!i) a.(!j) do
      incr j
    done;
    f !i !j;
    i := !j
  done

let set_of_run id a i j = Iset.of_list (List.init (j - i) (fun k -> id a.(i + k)))
let union_set s = function None -> Some s | Some old -> Some (Iset.union old s)

(* [push groups k x] files [x] under [k], newest first *)
let push groups k x =
  match Hashtbl.find_opt groups k with
  | Some xs -> xs := x :: !xs
  | None -> Hashtbl.add groups k (ref [ x ])

(* label or type index: one set per key of [groups] *)
let index_batch groups idx =
  Hashtbl.fold (fun k ids idx -> Smap.update k (union_set (Iset.of_list !ids)) idx) groups idx

(* plain and typed adjacency on one side ([endpoint] is [src] or [tgt]) *)
let adj_batch endpoint (rels : rel array) (adj, typed) =
  let a = Array.copy rels in
  Array.stable_sort
    (fun x y ->
      match Int.compare (endpoint x) (endpoint y) with
      | 0 -> String.compare x.r_type y.r_type
      | c -> c)
    a;
  let rid r = r.r_id in
  let adj = ref adj and typed = ref typed in
  runs
    (fun x y -> endpoint x = endpoint y)
    a 0 (Array.length a)
    (fun i j ->
      let n = endpoint a.(i) in
      adj := Imap.update n (union_set (set_of_run rid a i j)) !adj;
      let by_type = ref Smap.empty in
      runs
        (fun x y -> x.r_type = y.r_type)
        a i j
        (fun i j -> by_type := Smap.add a.(i).r_type (set_of_run rid a i j) !by_type);
      typed :=
        Imap.update n
          (function
            | None -> Some !by_type
            | Some old ->
                Some (Smap.union (fun _ s t -> Some (Iset.union s t)) old !by_type))
          !typed);
  (!adj, !typed)

(* the registered property indexes, fed the batch's non-null values *)
let pindex_batch (nodes : node array) pidx =
  if Smap.is_empty pidx then pidx
  else
    let groups = Hashtbl.create 16 in
    Array.iter
      (fun n ->
        Sset.iter
          (fun l ->
            match Smap.find_opt l pidx with
            | None -> ()
            | Some keys ->
                Smap.iter
                  (fun key _ ->
                    match Props.get n.n_props key with
                    | Value.Null -> ()
                    | v -> push groups (l, key) (v, n.n_id))
                  keys)
          n.labels)
      nodes;
    Hashtbl.fold
      (fun (l, key) pairs pidx ->
        let a = Array.of_list (List.rev !pairs) in
        Array.stable_sort (fun (v, _) (w, _) -> Value.compare_total v w) a;
        let keys = Smap.find l pidx in
        let vmap = ref (Smap.find key keys) in
        runs
          (fun (v, _) (w, _) -> Value.compare_total v w = 0)
          a 0 (Array.length a)
          (fun i j -> vmap := Vmap.update (fst a.(i)) (union_set (set_of_run snd a i j)) !vmap);
        Smap.add l (Smap.add key !vmap keys) pidx)
      groups pidx

(* Adds fresh entities — ids absent from [g], each array ascending —
   in one bottom-up pass.  A relationship endpoint found neither in [g]
   nor in [nodes] is an [Invalid_argument] naming [caller]. *)
let insert_batch ~caller g (nodes : node array) (rels : rel array) =
  let node_map = Array.fold_left (fun m n -> Imap.add n.n_id n m) g.nodes nodes in
  let endpoint side id =
    if not (Imap.mem id node_map) then
      invalid_arg (Printf.sprintf "%s: no %s node %d" caller side id)
  in
  Array.iter
    (fun r ->
      endpoint "source" r.src;
      endpoint "target" r.tgt)
    rels;
  let out_adj, out_typed = adj_batch (fun r -> r.src) rels (g.out_adj, g.out_typed) in
  let in_adj, in_typed = adj_batch (fun r -> r.tgt) rels (g.in_adj, g.in_typed) in
  let labels = Hashtbl.create 16 and types = Hashtbl.create 16 in
  Array.iter (fun n -> Sset.iter (fun l -> push labels l n.n_id) n.labels) nodes;
  Array.iter (fun r -> push types r.r_type r.r_id) rels;
  {
    g with
    nodes = node_map;
    rels = Array.fold_left (fun m r -> Imap.add r.r_id r m) g.rels rels;
    out_adj;
    in_adj;
    out_typed;
    in_typed;
    label_index = index_batch labels g.label_index;
    type_index = index_batch types g.type_index;
    prop_index = pindex_batch nodes g.prop_index;
  }

(** [add_batch g nodes rels] adds fresh node and relationship records
    whose ids, merged in ascending order, are exactly [next_id g],
    [next_id g + 1], ... — the ids the same entities would get from
    {!create_node}/{!create_rel} applied in id order, whose result this
    equals.  Relationship endpoints may be in [g] or in [nodes]. *)
let add_batch g (nodes : node list) (rels : rel list) =
  let rec supply next (ns : node list) (rs : rel list) =
    match (ns, rs) with
    | [], [] -> next
    | n :: ns, _ when n.n_id = next -> supply (next + 1) ns rs
    | _, r :: rs when r.r_id = next -> supply (next + 1) ns rs
    | _ -> invalid_arg (Printf.sprintf "Graph.add_batch: id %d expected" next)
  in
  let next_id = supply g.next_id nodes rels in
  insert_batch ~caller:"Graph.add_batch" { g with next_id } (Array.of_list nodes)
    (Array.of_list rels)

(* ------------------------------------------------------------------ *)
(* In-place modification (persistent: returns a new graph)            *)
(* ------------------------------------------------------------------ *)

let update_node g id f =
  match node g id with
  | None -> g
  | Some n ->
      let n' = f n in
      {
        g with
        nodes = Imap.add id n' g.nodes;
        label_index =
          reindex ~old_labels:n.labels ~new_labels:n'.labels id g.label_index;
        prop_index =
          (if Smap.is_empty g.prop_index then g.prop_index
           else pindex_node_add n' (pindex_node_remove n g.prop_index));
      }

let update_rel g id f =
  match rel g id with
  | None -> g
  | Some r ->
      let r' = f r in
      let g = { g with rels = Imap.add id r' g.rels } in
      if r'.r_type = r.r_type && r'.src = r.src && r'.tgt = r.tgt then g
      else
        (* re-key every structure derived from type or endpoints *)
        let move old_n new_n adj =
          if old_n = new_n then adj
          else
            Imap.add new_n
              (Iset.add id (adj_find new_n adj))
              (Imap.add old_n (Iset.remove id (adj_find old_n adj)) adj)
        in
        {
          g with
          out_adj = move r.src r'.src g.out_adj;
          in_adj = move r.tgt r'.tgt g.in_adj;
          out_typed =
            tadj_add r'.src r'.r_type id (tadj_remove r.src r.r_type id g.out_typed);
          in_typed =
            tadj_add r'.tgt r'.r_type id (tadj_remove r.tgt r.r_type id g.in_typed);
          type_index =
            (if r'.r_type = r.r_type then g.type_index
             else index_add r'.r_type id (index_remove r.r_type id g.type_index));
          dangling =
            (if has_node g r'.src && has_node g r'.tgt then
               Iset.remove id g.dangling
             else Iset.add id g.dangling);
        }

let set_node_prop g id k v =
  update_node g id (fun n -> { n with n_props = Props.set n.n_props k v })

let set_rel_prop g id k v =
  update_rel g id (fun r -> { r with r_props = Props.set r.r_props k v })

let remove_node_prop g id k =
  update_node g id (fun n -> { n with n_props = Props.remove n.n_props k })

let remove_rel_prop g id k =
  update_rel g id (fun r -> { r with r_props = Props.remove r.r_props k })

let replace_node_props g id props =
  update_node g id (fun n -> { n with n_props = props })

let replace_rel_props g id props =
  update_rel g id (fun r -> { r with r_props = props })

let merge_node_props g id extra =
  update_node g id (fun n -> { n with n_props = Props.merge_into n.n_props extra })

let merge_rel_props g id extra =
  update_rel g id (fun r -> { r with r_props = Props.merge_into r.r_props extra })

let add_label g id label =
  update_node g id (fun n -> { n with labels = Sset.add label n.labels })

let add_labels g id labels =
  List.fold_left (fun g l -> add_label g id l) g labels

let remove_label g id label =
  update_node g id (fun n -> { n with labels = Sset.remove label n.labels })

(* ------------------------------------------------------------------ *)
(* Deletion                                                           *)
(* ------------------------------------------------------------------ *)

let remove_rel g id =
  match rel g id with
  | None -> g
  | Some r ->
      let out_adj =
        Imap.add r.src (Iset.remove id (adj_find r.src g.out_adj)) g.out_adj
      in
      let in_adj =
        Imap.add r.tgt (Iset.remove id (adj_find r.tgt g.in_adj)) g.in_adj
      in
      {
        g with
        rels = Imap.remove id g.rels;
        out_adj;
        in_adj;
        out_typed = tadj_remove r.src r.r_type id g.out_typed;
        in_typed = tadj_remove r.tgt r.r_type id g.in_typed;
        type_index = index_remove r.r_type id g.type_index;
        dangling = Iset.remove id g.dangling;
        tombs = Imap.add id Tomb_rel g.tombs;
      }

(** Strict node removal: refuses (returns [Error rels]) when relationships
    are still attached — the revised [DELETE] semantics of Section 7. *)
let remove_node g id =
  match node g id with
  | None -> Ok g
  | Some n -> (
      match incident_rels g id with
      | [] ->
          Ok
            {
              g with
              nodes = Imap.remove id g.nodes;
              out_adj = Imap.remove id g.out_adj;
              in_adj = Imap.remove id g.in_adj;
              out_typed = Imap.remove id g.out_typed;
              in_typed = Imap.remove id g.in_typed;
              label_index = unindex_node n g.label_index;
              prop_index = pindex_node_remove n g.prop_index;
              tombs = Imap.add id Tomb_node g.tombs;
            }
      | attached -> Error attached)

(** Legacy force removal: deletes the node even when relationships are
    attached, leaving them dangling — the intermediate illegal state the
    paper exhibits in Section 4.2. *)
let remove_node_force g id =
  match node g id with
  | None -> g
  | Some n ->
      {
        g with
        nodes = Imap.remove id g.nodes;
        out_adj = Imap.remove id g.out_adj;
        in_adj = Imap.remove id g.in_adj;
        out_typed = Imap.remove id g.out_typed;
        in_typed = Imap.remove id g.in_typed;
        label_index = unindex_node n g.label_index;
        prop_index = pindex_node_remove n g.prop_index;
        (* the still-attached relationships lose an endpoint *)
        dangling =
          Iset.union
            (Iset.union (adj_find id g.out_adj) (adj_find id g.in_adj))
            g.dangling;
        tombs = Imap.add id Tomb_node g.tombs;
      }

(** Detaching removal: deletes all incident relationships first. *)
let remove_node_detach g id =
  let g = List.fold_left (fun g r -> remove_rel g r.r_id) g (incident_rels g id) in
  match remove_node g id with Ok g -> g | Error _ -> assert false

(* ------------------------------------------------------------------ *)
(* Property indexes                                                   *)
(* ------------------------------------------------------------------ *)

(** [add_prop_index ~label ~key g] registers an exact-value index over
    the [key] property of [label]-carrying nodes and builds it from the
    current graph.  Once registered, the index is maintained by every
    node construction, update and removal; idempotent. *)
let add_prop_index ~label ~key g =
  let registered =
    match Smap.find_opt label g.prop_index with
    | Some keys -> Smap.mem key keys
    | None -> false
  in
  if registered then g
  else
    let vmap =
      Iset.fold
        (fun id vmap ->
          match node g id with
          | None -> vmap
          | Some n -> (
              match Props.get n.n_props key with
              | Value.Null -> vmap
              | v -> vmap_add v id vmap))
        (match Smap.find_opt label g.label_index with
        | Some s -> s
        | None -> Iset.empty)
        Vmap.empty
    in
    let keys =
      match Smap.find_opt label g.prop_index with
      | Some ks -> ks
      | None -> Smap.empty
    in
    { g with prop_index = Smap.add label (Smap.add key vmap keys) g.prop_index }

let has_prop_index g ~label ~key =
  match Smap.find_opt label g.prop_index with
  | Some keys -> Smap.mem key keys
  | None -> false

(** The registered (label, key) index pairs, alphabetically. *)
let prop_index_keys g =
  Smap.fold
    (fun l keys acc -> Smap.fold (fun k _ acc -> (l, k) :: acc) keys acc)
    g.prop_index []
  |> List.rev

(** [nodes_with_prop g ~label ~key v] is [Some ids] — the nodes carrying
    [label] whose [key] property equals [v], in id order — when the
    (label, key) index is registered, and [None] otherwise.  A [Null]
    value yields [Some []]: null never matches. *)
let nodes_with_prop g ~label ~key v =
  match Smap.find_opt label g.prop_index with
  | None -> None
  | Some keys -> (
      match Smap.find_opt key keys with
      | None -> None
      | Some vmap ->
          if Value.is_null v then Some []
          else
            Some
              (match Vmap.find_opt v vmap with
              | Some s -> Iset.elements s
              | None -> []))

(** Cardinality of the index bucket for [v]; [None] when unindexed. *)
let count_with_prop g ~label ~key v =
  match Smap.find_opt label g.prop_index with
  | None -> None
  | Some keys -> (
      match Smap.find_opt key keys with
      | None -> None
      | Some vmap ->
          if Value.is_null v then Some 0
          else
            Some
              (match Vmap.find_opt v vmap with
              | Some s -> Iset.cardinal s
              | None -> 0))

(* ------------------------------------------------------------------ *)
(* Wholesale reconstruction                                           *)
(* ------------------------------------------------------------------ *)

(** [rebuild ~next_id ~tombs nodes rels] constructs a graph from entity
    lists in one bottom-up pass, as {!add_batch} does, recomputing
    adjacency and every index.  Every relationship
    endpoint must be present in [nodes].  Used by the MERGE SAME
    quotient, which keeps only class representatives and remaps
    endpoints (Section 8.2).  [prop_indexes] re-registers (and rebuilds)
    the given property indexes on the result. *)
let rebuild ?(prop_indexes = []) ~next_id ~tombs (node_list : node list)
    (rel_list : rel list) =
  let g =
    List.fold_left
      (fun g (label, key) -> add_prop_index ~label ~key g)
      { empty with next_id; tombs }
      prop_indexes
  in
  let nodes = Array.of_list node_list and rels = Array.of_list rel_list in
  Array.stable_sort (fun (a : node) b -> Int.compare a.n_id b.n_id) nodes;
  Array.stable_sort (fun (a : rel) b -> Int.compare a.r_id b.r_id) rels;
  insert_batch ~caller:"Graph.rebuild" g nodes rels

(* ------------------------------------------------------------------ *)
(* Entity views for the evaluator                                     *)
(* ------------------------------------------------------------------ *)

(** λ of a node as a sorted list; empty for tombstoned/unknown ids (the
    "empty node" a legacy query can still observe after deletion). *)
let labels_of g id =
  match node g id with Some n -> Sset.elements n.labels | None -> []

let node_props_of g id =
  match node g id with Some n -> n.n_props | None -> Props.empty

let rel_props_of g id =
  match rel g id with Some r -> r.r_props | None -> Props.empty

let has_label g id label =
  match node g id with Some n -> Sset.mem label n.labels | None -> false

(** Ids of the nodes carrying [label], in id order — served from the
    label index, so label-anchored pattern scans avoid a full node
    sweep. *)
let nodes_with_label g label =
  match Smap.find_opt label g.label_index with
  | None -> []
  | Some s -> Iset.elements s

(** All labels in use with their node counts, alphabetically. *)
let label_histogram g =
  Smap.fold (fun l s acc -> (l, Iset.cardinal s) :: acc) g.label_index []
  |> List.rev

(** All relationship types in use with their counts, alphabetically —
    served from the type index. *)
let type_histogram g =
  Smap.fold
    (fun ty s acc ->
      if Iset.is_empty s then acc else (ty, Iset.cardinal s) :: acc)
    g.type_index []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let pp_node g ppf (n : node) =
  ignore g;
  let labels = Sset.elements n.labels in
  Fmt.pf ppf "(%d%s%s)" n.n_id
    (String.concat "" (List.map (fun l -> ":" ^ l) labels))
    (if Props.is_empty n.n_props then "" else Fmt.str " %a" Props.pp n.n_props)

let pp_rel g ppf (r : rel) =
  ignore g;
  Fmt.pf ppf "(%d)-[%d:%s%s]->(%d)" r.src r.r_id r.r_type
    (if Props.is_empty r.r_props then "" else Fmt.str " %a" Props.pp r.r_props)
    r.tgt

(** Deterministic textual dump: nodes then relationships, in id order. *)
let pp ppf g =
  Fmt.pf ppf "graph {@[<v>";
  List.iter (fun n -> Fmt.pf ppf "@,%a" (pp_node g) n) (nodes g);
  List.iter (fun r -> Fmt.pf ppf "@,%a" (pp_rel g) r) (rels g);
  Fmt.pf ppf "@]@,}"

let to_string g = Fmt.str "%a" pp g
