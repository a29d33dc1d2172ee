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
    relationships (Section 4.2), and a driving table can still reference
    a deleted entity: its id reads as absent ({!node} is [None],
    {!labels_of} is [[]]) — the "empty node" observation of Section 4.2
    — and is never reused, because [next_id] only grows. *)

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

(* A node's relationships in one direction, by type.  Most nodes have
   one type per direction, so that type and its set are stored alone;
   the map serves two or more types.  The form is decided by the
   contents, and no set is empty. *)
type buckets = One_type of string * Ids.t | Types of Ids.t Smap.t

type t = {
  nodes : node Idmap.t;
  rels : rel Idmap.t;
  out_typed : buckets Idmap.t; (* node id -> type -> rels leaving it *)
  in_typed : buckets Idmap.t; (* node id -> type -> rels entering it *)
      (* the only adjacency index: a node's untyped adjacency is the
         union of its buckets, derived on demand rather than stored *)
  label_index : Ids.t Smap.t; (* label -> ids of nodes carrying it *)
  type_counts : int Smap.t;
      (* type -> how many rels carry it (no id list: hops read the typed buckets) *)
  prop_index : Vindex.t Smap.t Smap.t;
      (* label -> key -> value -> node ids; an entry for (label, key)
         exists iff that index has been registered, even when empty *)
  dangling : Ids.t;
      (* rels with a missing endpoint — populated only by a legacy
         force-delete; maintained so the per-statement well-formedness
         check is O(1) instead of a full relationship sweep *)
  next_id : int;
}

let empty =
  {
    nodes = Idmap.empty;
    rels = Idmap.empty;
    out_typed = Idmap.empty;
    in_typed = Idmap.empty;
    label_index = Smap.empty;
    type_counts = Smap.empty;
    prop_index = Smap.empty;
    dangling = Ids.empty;
    next_id = 0;
  }

(* --- label index maintenance -------------------------------------- *)

let index_add label id idx =
  Smap.update label
    (function None -> Some (Ids.singleton id) | Some s -> Some (Ids.add id s))
    idx

let index_remove label id idx =
  Smap.update label
    (function
      | None -> None
      | Some s ->
          let s = Ids.remove id s in
          if Ids.is_empty s then None else Some s)
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

(* [count ty d] adds [d] to the relationship count of [ty], dropping it at 0 *)
let count ty d =
  Smap.update ty (fun c -> match Option.value c ~default:0 + d with 0 -> None | c -> Some c)

(* --- typed adjacency maintenance ---------------------------------- *)

let tset_find ty sm =
  match Smap.find_opt ty sm with Some s -> s | None -> Ids.empty

(* the set of type [ty] in a node's buckets *)
let bucket ty = function
  | Some (One_type (t, s)) -> if String.equal t ty then s else Ids.empty
  | Some (Types m) -> tset_find ty m
  | None -> Ids.empty

let fold_buckets f b acc =
  match b with One_type (ty, s) -> f ty s acc | Types m -> Smap.fold f m acc

(* the form of a type map's bindings: none, one type alone, or the map *)
let of_types m =
  match Smap.min_binding_opt m with
  | None -> None
  | Some (ty, s) -> if Smap.cardinal m = 1 then Some (One_type (ty, s)) else Some (Types m)

(* [b] with type [ty]'s set replaced by [s], which may be empty *)
let set_bucket ty s b =
  match b with
  | None -> if Ids.is_empty s then None else Some (One_type (ty, s))
  | Some (One_type (t, old)) when not (String.equal t ty) ->
      if Ids.is_empty s then b else Some (Types (Smap.add ty s (Smap.singleton t old)))
  | Some (One_type _) -> if Ids.is_empty s then None else Some (One_type (ty, s))
  | Some (Types m) -> of_types (if Ids.is_empty s then Smap.remove ty m else Smap.add ty s m)

let tmap_find id ty m = bucket ty (Idmap.find_opt id m)
let tadj_add id ty rid m = Idmap.update id (fun b -> set_bucket ty (Ids.add rid (bucket ty b)) b) m
let tadj_remove id ty rid m = Idmap.update id (fun b -> set_bucket ty (Ids.remove rid (bucket ty b)) b) m

(* --- property index maintenance ------------------------------------ *)

let vmap_add v id vmap =
  Vindex.update v
    (function None -> Some (Ids.singleton id) | Some s -> Some (Ids.add id s))
    vmap

(* an emptied set unbinds its value *)
let vmap_remove v id vmap = Vindex.update v (Option.map (Ids.remove id)) vmap

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

let node g id = Idmap.find_opt id g.nodes
let rel g id = Idmap.find_opt id g.rels

let node_exn g id =
  match node g id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Graph.node_exn: no node %d" id)

let rel_exn g id =
  match rel g id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Graph.rel_exn: no relationship %d" id)

let has_node g id = Idmap.mem id g.nodes
let next_id g = g.next_id
let has_rel g id = Idmap.mem id g.rels
let node_count g = Idmap.cardinal g.nodes
let rel_count g = Idmap.cardinal g.rels
let values m = Idmap.fold_desc (fun _ x acc -> x :: acc) m []
let keys m = Idmap.fold_desc (fun id _ acc -> id :: acc) m []
let nodes g = values g.nodes
let rels g = values g.rels
let node_ids g = keys g.nodes
let rel_ids g = keys g.rels
let fold_nodes f g acc = Idmap.fold (fun _ n acc -> f n acc) g.nodes acc
let fold_node_ids f g acc = Idmap.fold (fun id _ acc -> f id acc) g.nodes acc
let fold_rels f g acc = Idmap.fold (fun _ r acc -> f r acc) g.rels acc
let fold_node_changes f a b acc = Idmap.fold_diff f a.nodes b.nodes acc
let fold_rel_changes f a b acc = Idmap.fold_diff f a.rels b.rels acc

(** Cumulative wall-time spent building read snapshots, process-wide.
    The store keeps a single read path (the persistent maps), so nothing
    is ever built and this is the constant [0L]; it stays for the wire
    benchmark's trace, which still reads it. *)
let csr_build_ns_total () = 0L

let rels_of_set g s = Ids.fold (fun r acc -> rel_exn g r :: acc) s [] |> List.rev

(* A node's untyped adjacency: the union of its type buckets, in id
   order.  A node with a single type (most nodes) gets that bucket back
   unallocated. *)
let all_buckets id typed =
  match Idmap.find_opt id typed with
  | None -> Ids.empty
  | Some (One_type (_, s)) -> s
  | Some (Types m) -> Smap.fold (fun _ s acc -> Ids.union s acc) m Ids.empty

(* raw adjacency id-sets, for callers that fold without materialising
   relationship lists (the matcher's hop enumeration) *)
let out_rel_ids g id = all_buckets id g.out_typed
let in_rel_ids g id = all_buckets id g.in_typed
let incident_ids g id = Ids.union (out_rel_ids g id) (in_rel_ids g id)

(** Relationships leaving node [id], in id order. *)
let out_rels g id = rels_of_set g (out_rel_ids g id)

(** Relationships entering node [id], in id order. *)
let in_rels g id = rels_of_set g (in_rel_ids g id)

(** All relationships incident to node [id] (self-loops reported once). *)
let incident_rels g id = rels_of_set g (incident_ids g id)

let degree g id = Ids.cardinal (incident_ids g id)

(* --- typed adjacency views ----------------------------------------- *)

let out_rel_ids_typed g id ty = tmap_find id ty g.out_typed
let in_rel_ids_typed g id ty = tmap_find id ty g.in_typed

(** Relationships of type [ty] leaving node [id], in id order — served
    from the typed adjacency map, so a hop with a type label never
    enumerates differently-typed neighbours. *)
let out_rels_typed g id ty = rels_of_set g (out_rel_ids_typed g id ty)

(** Relationships of type [ty] entering node [id], in id order. *)
let in_rels_typed g id ty = rels_of_set g (in_rel_ids_typed g id ty)

(** Relationships of type [ty] incident to node [id] (self-loops once). *)
let incident_rels_typed g id ty =
  rels_of_set g (Ids.union (out_rel_ids_typed g id ty) (in_rel_ids_typed g id ty))

let out_degree_typed g id ty = Ids.cardinal (out_rel_ids_typed g id ty)

let type_count g ty = Option.value (Smap.find_opt ty g.type_counts) ~default:0
let label_count g label = Ids.cardinal (tset_find label g.label_index)

(** Relationships whose source or target node no longer exists — only
    possible after a legacy force-delete; a well-formed graph has none.
    Served from a maintained set: the statement-boundary validity check
    runs on every query, so it must not sweep all relationships. *)
let dangling_rels g = rels_of_set g g.dangling

let is_wellformed g = Ids.is_empty g.dangling

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create_node ?(labels = []) ?(props = Props.empty) g =
  let id = g.next_id in
  let n = { n_id = id; labels = sset_of_list labels; n_props = props } in
  ( id,
    {
      g with
      nodes = Idmap.add id n g.nodes;
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
  ( id,
    {
      g with
      rels = Idmap.add id r g.rels;
      out_typed = tadj_add src r_type id g.out_typed;
      in_typed = tadj_add tgt r_type id g.in_typed;
      type_counts = count r_type 1 g.type_counts;
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
   once instead: the node and relationship maps are built whole from
   the batch's ascending ids, other maps take their new keys in
   ascending order (only the right spine is ever copied), and every id
   set is built whole from a sorted run of the batch, then unioned into
   the set already there. *)

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

(* [run_starts same n] is the first position of each maximal run of
   positions [0 .. n - 1] that [same] relates to the position before,
   then [n] *)
let run_starts same n =
  let count = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || not (same (k - 1) k) then incr count
  done;
  let starts = Array.make (!count + 1) n and r = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || not (same (k - 1) k) then begin
      starts.(!r) <- k;
      incr r
    end
  done;
  starts

(* runs hold ascending ids: the batch arrays are in id order and every
   sort below is stable *)
let set_of_run id a i j = Ids.of_sorted (Array.init (j - i) (fun k -> id a.(i + k)))
let union_set s = function None -> Some s | Some old -> Some (Ids.union old s)

(* [group iter] files each [(k, x)] that [iter] yields under [k], in
   yield order, into one array per key sized by a first counting pass
   over [iter]: no list cell per element, and no copy out of a list *)
let group iter =
  let sizes = Hashtbl.create 16 and groups = Hashtbl.create 16 in
  iter (fun k _ -> Hashtbl.replace sizes k (1 + Option.value (Hashtbl.find_opt sizes k) ~default:0));
  iter (fun k x ->
      match Hashtbl.find_opt groups k with
      | Some (a, filled) ->
          a.(!filled) <- x;
          incr filled
      | None -> Hashtbl.add groups k (Array.make (Hashtbl.find sizes k) x, ref 1));
  groups

(* the label index, fed the batch's ids, which ascend *)
let index_batch (nodes : node array) idx =
  Hashtbl.fold
    (fun l (ids, _) idx -> Smap.update l (union_set (Ids.of_sorted ids)) idx)
    (group (fun f -> Array.iter (fun n -> Sset.iter (fun l -> f l n.n_id) n.labels) nodes))
    idx

(* [by_endpoint endpoint rels] is the permutation of [rels]' positions
   that sorts them stably by endpoint.  A counting sort over the
   endpoints' range [lo, hi] needs a count array of [hi - lo + 2] ints
   besides the permutation, so it runs only while that range is at
   most eight times the batch; a batch touching a few far-apart nodes
   (node 0 and node 10^6) takes a comparison sort instead. *)
let by_endpoint endpoint (rels : rel array) =
  let n = Array.length rels in
  let lo = Array.fold_left (fun m r -> Int.min m (endpoint r)) max_int rels
  and hi = Array.fold_left (fun m r -> Int.max m (endpoint r)) min_int rels in
  if n = 0 || hi - lo > 8 * n then begin
    let perm = Array.init n Fun.id in
    Array.stable_sort (fun i j -> Int.compare (endpoint rels.(i)) (endpoint rels.(j))) perm;
    perm
  end
  else begin
    (* [start.(e - lo)]: first position of endpoint [e] in the sorted
       order, advanced as its relationships are placed *)
    let start = Array.make (hi - lo + 2) 0 in
    Array.iter (fun r -> let k = endpoint r - lo + 1 in start.(k) <- start.(k) + 1) rels;
    for k = 1 to hi - lo + 1 do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let perm = Array.make n 0 in
    Array.iteri
      (fun i r ->
        let k = endpoint r - lo in
        perm.(start.(k)) <- i;
        start.(k) <- start.(k) + 1)
      rels;
    perm
  end

(* the type buckets of one endpoint's relationships [rels.(perm.(i))
   .. rels.(perm.(j - 1))], which ascend by id: one bucket when they
   share a type (the common case), else a stable sort of the run by
   type *)
let buckets (rels : rel array) perm i j =
  let ty k = rels.(perm.(k)).r_type in
  let set_of positions i j = set_of_run (fun p -> rels.(p).r_id) positions i j in
  let rec one_type k = k = j || (String.equal (ty k) (ty i) && one_type (k + 1)) in
  if one_type (i + 1) then One_type (ty i, set_of perm i j)
  else begin
    let run = Array.sub perm i (j - i) in
    Array.stable_sort (fun p q -> String.compare rels.(p).r_type rels.(q).r_type) run;
    let by_type = ref Smap.empty in
    runs
      (fun p q -> String.equal rels.(p).r_type rels.(q).r_type)
      run 0 (Array.length run)
      (fun i j -> by_type := Smap.add rels.(run.(i)).r_type (set_of run i j) !by_type);
    Types !by_type
  end

(* typed adjacency on one side ([endpoint] is [src] or [tgt]), calling
   [check] once on each distinct endpoint: the endpoints' runs ascend,
   so the map takes them in one [Idmap.add_ascending] *)
let adj_batch ~check endpoint (rels : rel array) typed =
  let perm = by_endpoint endpoint rels in
  let starts =
    run_starts (fun k l -> endpoint rels.(perm.(k)) = endpoint rels.(perm.(l))) (Array.length perm)
  in
  let node r = endpoint rels.(perm.(starts.(r))) in
  Idmap.add_ascending
    (Array.length starts - 1)
    node
    (fun r old ->
      check (node r);
      let by_type = buckets rels perm starts.(r) starts.(r + 1) in
      match old with
      | None -> by_type
      | Some old ->
          let union ty s b = set_bucket ty (Ids.union (bucket ty b) s) b in
          Option.get (fold_buckets union by_type (Some old)))
    typed

(* the per-type counts, each type's batch total added once *)
let count_batch (rels : rel array) counts =
  let totals = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      match Hashtbl.find_opt totals r.r_type with
      | Some c -> incr c
      | None -> Hashtbl.add totals r.r_type (ref 1))
    rels;
  Hashtbl.fold (fun ty c counts -> count ty !c counts) totals counts

(* The one property-index builder.  [vals.(i)] is the indexed value of
   node [ids.(i)], [ids] ascending; [vmap_of_pairs vals ids] is their
   value map.  The pairs are sorted by value
   (stably, so each value's ids still ascend) only when they do not
   already ascend, as they do when a key numbers its nodes in id order;
   each run of equal values becomes one id set, and the runs, strictly
   ascending, one B-tree built bottom-up. *)
let vmap_of_pairs (vals : Value.t array) (ids : int array) =
  let n = Array.length ids in
  let rec ascending i =
    i >= n || (Value.compare_total vals.(i - 1) vals.(i) <= 0 && ascending (i + 1))
  in
  let vals, ids =
    if ascending 1 then (vals, ids)
    else begin
      let perm = Array.init n Fun.id in
      Array.stable_sort (fun p q -> Value.compare_total vals.(p) vals.(q)) perm;
      (Array.map (fun p -> vals.(p)) perm, Array.map (fun p -> ids.(p)) perm)
    end
  in
  let starts = run_starts (fun i j -> Value.compare_total vals.(i) vals.(j) = 0) n in
  let runs = Array.length starts - 1 in
  Vindex.of_sorted
    (Array.init runs (fun r -> vals.(starts.(r))))
    (Array.init runs (fun r ->
         let i = starts.(r) and j = starts.(r + 1) in
         Ids.of_sorted (Array.sub ids i (j - i))))

(* the value map of [key] over the nodes [iter] yields, in ascending id
   order: one pass counts the non-null values, the next fills exactly
   sized arrays with them *)
let vmap_of_nodes key iter =
  let n = ref 0 in
  iter (fun node -> if not (Value.is_null (Props.get node.n_props key)) then incr n);
  let vals = Array.make !n Value.Null and ids = Array.make !n 0 and i = ref 0 in
  iter (fun node ->
      match Props.get node.n_props key with
      | Value.Null -> ()
      | v ->
          vals.(!i) <- v;
          ids.(!i) <- node.n_id;
          incr i);
  vmap_of_pairs vals ids

(* [pindex_build nodes pidx] adds the nodes, which ascend by id, to each
   registered index of [pidx]: one map built by [vmap_of_pairs] per
   index, taken as it is by an empty registered one (as at an open) and
   added to a non-empty one value by value *)
let pindex_build (nodes : node array) pidx =
  Smap.mapi
    (fun l keys ->
      let labelled f = Array.iter (fun n -> if Sset.mem l n.labels then f n) nodes in
      Smap.mapi
        (fun key vmap ->
          let fresh = vmap_of_nodes key labelled in
          if Vindex.is_empty vmap then fresh
          else
            Vindex.fold
              (fun v s vmap ->
                Vindex.update v (fun old -> Some (Ids.union (Option.value old ~default:Ids.empty) s)) vmap)
              fresh vmap)
        keys)
    pidx

(* Adds fresh entities — ids absent from [g], each array ascending —
   in one bottom-up pass.  A relationship endpoint found neither in [g]
   nor in [nodes] is an [Invalid_argument] naming [caller]. *)
let insert_batch ~caller g (nodes : node array) (rels : rel array) =
  let add_fresh key a m =
    Idmap.add_ascending (Array.length a) (fun i -> key a.(i)) (fun i _ -> a.(i)) m
  in
  let node_map = add_fresh (fun n -> n.n_id) nodes g.nodes in
  (* each distinct endpoint is looked up once; on a miss the scan in
     batch order names the first bad relationship, source before target *)
  let check id =
    if not (Idmap.mem id node_map) then
      Array.iter
        (fun r ->
          List.iter
            (fun (side, id) ->
              if not (Idmap.mem id node_map) then
                invalid_arg (Printf.sprintf "%s: no %s node %d" caller side id))
            [ ("source", r.src); ("target", r.tgt) ])
        rels
  in
  {
    g with
    nodes = node_map;
    rels = add_fresh (fun r -> r.r_id) rels g.rels;
    out_typed = adj_batch ~check (fun r -> r.src) rels g.out_typed;
    in_typed = adj_batch ~check (fun r -> r.tgt) rels g.in_typed;
    label_index = index_batch nodes g.label_index;
    type_counts = count_batch rels g.type_counts;
    prop_index = pindex_build nodes g.prop_index;
  }

(** [add_batch g nodes rels] adds fresh node and relationship records
    whose ids, merged in ascending order, are exactly [next_id g],
    [next_id g + 1], ... — the ids the same entities would get from
    {!create_node}/{!create_rel} applied in id order, whose result this
    equals.  Relationship endpoints may be in [g] or in [nodes]. *)
let add_batch g (nodes : node array) (rels : rel array) =
  let nn = Array.length nodes and nr = Array.length rels in
  let rec supply next i j =
    if i < nn && nodes.(i).n_id = next then supply (next + 1) (i + 1) j
    else if j < nr && rels.(j).r_id = next then supply (next + 1) i (j + 1)
    else if i = nn && j = nr then next
    else invalid_arg (Printf.sprintf "Graph.add_batch: id %d expected" next)
  in
  let next_id = supply g.next_id 0 0 in
  insert_batch ~caller:"Graph.add_batch" { g with next_id } nodes rels

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
        nodes = Idmap.add id n' g.nodes;
        label_index =
          reindex ~old_labels:n.labels ~new_labels:n'.labels id g.label_index;
        prop_index =
          (if Smap.is_empty g.prop_index then g.prop_index
           else pindex_node_add n' (pindex_node_remove n g.prop_index));
      }

(* a relationship's type and endpoints are fixed at creation: only its
   property map ever changes, and no index is derived from that *)
let update_rel_props g id f =
  match rel g id with
  | None -> g
  | Some r -> { g with rels = Idmap.add id { r with r_props = f r.r_props } g.rels }

let set_node_prop g id k v =
  update_node g id (fun n -> { n with n_props = Props.set n.n_props k v })

let set_rel_prop g id k v = update_rel_props g id (fun p -> Props.set p k v)

let remove_node_prop g id k =
  update_node g id (fun n -> { n with n_props = Props.remove n.n_props k })

let remove_rel_prop g id k = update_rel_props g id (fun p -> Props.remove p k)

let replace_node_props g id props =
  update_node g id (fun n -> { n with n_props = props })

let replace_rel_props g id props = update_rel_props g id (fun _ -> props)

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
      {
        g with
        rels = Idmap.remove id g.rels;
        out_typed = tadj_remove r.src r.r_type id g.out_typed;
        in_typed = tadj_remove r.tgt r.r_type id g.in_typed;
        type_counts = count r.r_type (-1) g.type_counts;
        dangling = Ids.remove id g.dangling;
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
              nodes = Idmap.remove id g.nodes;
              out_typed = Idmap.remove id g.out_typed;
              in_typed = Idmap.remove id g.in_typed;
              label_index = unindex_node n g.label_index;
              prop_index = pindex_node_remove n g.prop_index;
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
        nodes = Idmap.remove id g.nodes;
        out_typed = Idmap.remove id g.out_typed;
        in_typed = Idmap.remove id g.in_typed;
        label_index = unindex_node n g.label_index;
        prop_index = pindex_node_remove n g.prop_index;
        (* the still-attached relationships lose an endpoint *)
        dangling = Ids.union (incident_ids g id) g.dangling;
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
      vmap_of_nodes key (fun f ->
          Ids.fold
            (fun id () -> match node g id with Some n -> f n | None -> ())
            (tset_find label g.label_index)
            ())
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

(* every registered index with its label and key, alphabetically *)
let prop_indexes g =
  Smap.fold
    (fun l keys acc -> Smap.fold (fun k vmap acc -> (l, k, vmap) :: acc) keys acc)
    g.prop_index []
  |> List.rev

(** The registered (label, key) index pairs, alphabetically. *)
let prop_index_keys g = List.map (fun (l, k, _) -> (l, k)) (prop_indexes g)

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
          if Value.is_null v then Some [] else Some (Ids.elements (Vindex.find v vmap)))

(** Cardinality of the index bucket for [v]; [None] when unindexed. *)
let count_with_prop g ~label ~key v =
  match Smap.find_opt label g.prop_index with
  | None -> None
  | Some keys -> (
      match Smap.find_opt key keys with
      | None -> None
      | Some vmap ->
          if Value.is_null v then Some 0 else Some (Ids.cardinal (Vindex.find v vmap)))

(* ------------------------------------------------------------------ *)
(* Wholesale reconstruction                                           *)
(* ------------------------------------------------------------------ *)

(** [rebuild ~next_id nodes rels] constructs a graph from entity
    lists in one bottom-up pass, as {!add_batch} does, recomputing
    adjacency and every index.  Every relationship
    endpoint must be present in [nodes].  Used by the MERGE SAME
    quotient, which keeps only class representatives and remaps
    endpoints (Section 8.2).  [prop_indexes] re-registers (and rebuilds)
    the given property indexes on the result. *)
let rebuild ?(prop_indexes = []) ~next_id (node_list : node list)
    (rel_list : rel list) =
  let g =
    List.fold_left
      (fun g (label, key) -> add_prop_index ~label ~key g)
      { empty with next_id }
      prop_indexes
  in
  let nodes = Array.of_list node_list and rels = Array.of_list rel_list in
  Array.stable_sort (fun (a : node) b -> Int.compare a.n_id b.n_id) nodes;
  Array.stable_sort (fun (a : rel) b -> Int.compare a.r_id b.r_id) rels;
  insert_batch ~caller:"Graph.rebuild" g nodes rels

(* ------------------------------------------------------------------ *)
(* Entity views for the evaluator                                     *)
(* ------------------------------------------------------------------ *)

(** λ of a node as a sorted list; empty for deleted/unknown ids (the
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
let nodes_with_label g label = Ids.elements (tset_find label g.label_index)
let fold_label f g label acc = Ids.fold f (tset_find label g.label_index) acc

(** All labels in use with their node counts, alphabetically. *)
let label_histogram g =
  Smap.fold (fun l s acc -> (l, Ids.cardinal s) :: acc) g.label_index []
  |> List.rev

(** All relationship types in use with their counts, alphabetically. *)
let type_histogram g = Smap.bindings g.type_counts

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

(* ------------------------------------------------------------------ *)
(* Footprint                                                          *)
(* ------------------------------------------------------------------ *)

let fold_id_sets f g acc =
  let buckets dir typed acc =
    Idmap.fold
      (fun id b acc ->
        fold_buckets
          (fun ty s acc -> f (Printf.sprintf "%s bucket :%s of node %d" dir ty id) s acc)
          b acc)
      typed acc
  in
  acc
  |> buckets "out" g.out_typed
  |> buckets "in" g.in_typed
  |> Smap.fold (fun l s acc -> f ("label index " ^ l) s acc) g.label_index
  |> Smap.fold
       (fun l keys acc ->
         Smap.fold
           (fun key vmap acc ->
             Vindex.fold
               (fun v s acc ->
                 f (Printf.sprintf "property index %s(%s) = %s" l key (Value.to_string v)) s acc)
               vmap acc)
           keys acc)
       g.prop_index
  |> f "dangling set" g.dangling

let ( let* ) = Result.bind

let footprint g =
  let w x = Obj.reachable_words (Obj.repr x) in
  [
    ("nodes", w g.nodes);
    ("rels", w g.rels);
    ("out_typed", w g.out_typed);
    ("in_typed", w g.in_typed);
    ("label_index", w g.label_index);
    ("type_counts", w g.type_counts);
    ("prop_index", w g.prop_index);
    ("dangling", w g.dangling);
    ("total", w g);
    ("nodes map", Idmap.words g.nodes);
    ("rels map", Idmap.words g.rels);
    ("out_typed map", Idmap.words g.out_typed);
    ("in_typed map", Idmap.words g.in_typed);
    ("label sets", Smap.fold (fun _ s acc -> acc + Ids.words s) g.label_index 0);
  ]
  @ List.map
      (fun (l, k, vmap) -> (Printf.sprintf "%s(%s) index" l k, Vindex.words vmap))
      (prop_indexes g)

(* a node's buckets are in the form their types decide: one type alone,
   or a map of two or more; no set is empty *)
let buckets_ok typed =
  Idmap.fold
    (fun id b acc ->
      let* () = acc in
      let fail what = Error (Printf.sprintf "node %d: %s" id what) in
      match b with
      | One_type (_, s) when Ids.is_empty s -> fail "an empty bucket"
      | Types m when Smap.cardinal m < 2 -> fail "a type map of fewer than two types"
      | Types m when Smap.exists (fun _ s -> Ids.is_empty s) m -> fail "an empty bucket"
      | One_type _ | Types _ -> Ok ())
    typed (Ok ())

let check_shapes g =
  [
    ("nodes", Idmap.check g.nodes);
    ("rels", Idmap.check g.rels);
    ("out_typed", Idmap.check g.out_typed);
    ("in_typed", Idmap.check g.in_typed);
    ("out_typed buckets", buckets_ok g.out_typed);
    ("in_typed buckets", buckets_ok g.in_typed);
  ]
  @ List.map
      (fun (l, k, vmap) -> (Printf.sprintf "index %s(%s)" l k, Vindex.check vmap))
      (prop_indexes g)
