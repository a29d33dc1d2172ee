(** Property-value maps as persistent B-trees; see the interface. *)

(* entries per node: a constant, not a knob *)
let max_entries = 32
let min_entries = max_entries / 2

(* A leaf's [keys] ascend and [sets.(i)] is bound to [keys.(i)]; an
   inner node's [mins.(i)] is the least key under [kids.(i)]. *)
type t =
  | Leaf of { keys : Value.t array; sets : Ids.t array }
  | Node of { mins : Value.t array; kids : t array }

let empty = Leaf { keys = [||]; sets = [||] }
let is_empty = function Leaf { keys; _ } -> Array.length keys = 0 | Node _ -> false

(* the index of [v] in the ascending [keys], or [-(i + 1)] when [v] is
   absent and would go at index [i] *)
let search v keys =
  let rec go lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) lsr 1 in
      let c = Value.compare_total v keys.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length keys)

(* the child whose range holds [v]: the last one whose least key is at
   most [v], or the first *)
let child v mins =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) lsr 1 in
      if Value.compare_total mins.(mid) v <= 0 then go mid hi else go lo mid
  in
  go 0 (Array.length mins)

let rec find v = function
  | Leaf { keys; sets } ->
      let i = search v keys in
      if i >= 0 then sets.(i) else Ids.empty
  | Node { mins; kids } -> find v kids.(child v mins)

(* --- nodes as slices ----------------------------------------------- *)

let size = function Leaf l -> Array.length l.keys | Node n -> Array.length n.kids
let least = function Leaf l -> l.keys.(0) | Node n -> n.mins.(0)
let node kids = Node { mins = Array.map least kids; kids }

let sub t lo len =
  match t with
  | Leaf l -> Leaf { keys = Array.sub l.keys lo len; sets = Array.sub l.sets lo len }
  | Node n -> Node { mins = Array.sub n.mins lo len; kids = Array.sub n.kids lo len }

(* two neighbours of one level as one node *)
let append a b =
  match (a, b) with
  | Leaf x, Leaf y -> Leaf { keys = Array.append x.keys y.keys; sets = Array.append x.sets y.sets }
  | Node x, Node y -> Node { mins = Array.append x.mins y.mins; kids = Array.append x.kids y.kids }
  | _ -> invalid_arg "Vindex.append: nodes of different levels"

(* [t] as one node, or as two halves when it holds more than
   [max_entries] *)
let fit t =
  let n = size t in
  if n <= max_entries then [ t ] else [ sub t 0 (n / 2); sub t (n / 2) (n - (n / 2)) ]

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let replace_at a i x =
  let b = Array.copy a in
  b.(i) <- x;
  b

let remove_at a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - i - 1);
  b

(* [a] with its [len] elements from [i] replaced by [xs] *)
let splice a i len xs =
  let xs = Array.of_list xs in
  Array.concat [ Array.sub a 0 i; xs; Array.sub a (i + len) (Array.length a - i - len) ]

(* --- update -------------------------------------------------------- *)

exception Unchanged

let update v f m =
  (* the node's replacement: none when it is left empty, two when it
     overflows *)
  let rec go = function
    | Leaf { keys; sets } -> (
        let i = search v keys in
        let old = if i >= 0 then Some sets.(i) else None in
        let s = match f old with Some s when not (Ids.is_empty s) -> Some s | _ -> None in
        match (s, old) with
        | None, None -> raise Unchanged
        | Some s, Some o -> if s == o then raise Unchanged else [ Leaf { keys; sets = replace_at sets i s } ]
        | Some s, None ->
            let i = -(i + 1) in
            fit (Leaf { keys = insert_at keys i v; sets = insert_at sets i s })
        | None, Some _ ->
            if Array.length keys = 1 then []
            else [ Leaf { keys = remove_at keys i; sets = remove_at sets i } ])
    | Node { mins; kids } ->
        let i = child v mins in
        let kids =
          match go kids.(i) with
          | [ r ] when size r < min_entries && Array.length kids > 1 ->
              (* a child left below half joins a neighbour *)
              let j = if i + 1 < Array.length kids then i else i - 1 in
              let a = if j = i then r else kids.(j) and b = if j = i then kids.(i + 1) else r in
              splice kids j 2 (fit (append a b))
          | rs -> splice kids i 1 rs
        in
        if Array.length kids = 0 then [] else fit (node kids)
  in
  let rec collapse = function Node { kids = [| kid |]; _ } -> collapse kid | root -> root in
  match go m with
  | exception Unchanged -> m
  | [] -> empty
  | [ root ] -> collapse root
  | roots -> node (Array.of_list roots)

(* --- building from sorted arrays ----------------------------------- *)

(* [chunks n f] cuts [n] entries into as few nodes of at most
   [max_entries] as hold them, evened out: [f lo len] makes each *)
let chunks n f =
  let c = (n + max_entries - 1) / max_entries in
  Array.init c (fun k ->
      let lo = k * n / c in
      f lo (((k + 1) * n / c) - lo))

let of_sorted keys sets =
  let n = Array.length keys in
  if Array.length sets <> n then invalid_arg "Vindex.of_sorted: arrays differ in length";
  if n = 0 then empty
  else
    let rec up level =
      if Array.length level = 1 then level.(0)
      else up (chunks (Array.length level) (fun lo len -> node (Array.sub level lo len)))
    in
    up (chunks n (fun lo len -> Leaf { keys = Array.sub keys lo len; sets = Array.sub sets lo len }))

(* --- enumeration, footprint and shape ------------------------------ *)

let rec fold f m acc =
  match m with
  | Leaf { keys; sets } ->
      let acc = ref acc in
      for i = 0 to Array.length keys - 1 do
        acc := f keys.(i) sets.(i) !acc
      done;
      !acc
  | Node { kids; _ } -> Array.fold_left (fun acc kid -> fold f kid acc) acc kids

(* a node is a two-field block (3 words) plus its two arrays; an empty
   array is a static atom *)
let rec words m =
  let arr a = if Array.length a = 0 then 0 else 1 + Array.length a in
  match m with
  | Leaf { keys; sets } ->
      Array.fold_left (fun acc s -> acc + Ids.words s) (3 + arr keys + arr sets) sets
  | Node { mins; kids } -> Array.fold_left (fun acc kid -> acc + words kid) (3 + arr mins + arr kids) kids

let check m =
  let ( let* ) = Result.bind in
  let last = ref None in
  let sized ~root what n ~lo =
    if n > max_entries then Error (Printf.sprintf "%s holds %d entries" what n)
    else if (not root) && n < lo then Error (Printf.sprintf "%s holds %d entries, below %d" what n lo)
    else Ok ()
  in
  (* the depth of [m]'s leaves *)
  let rec go ~root = function
    | Leaf { keys; sets } ->
        let n = Array.length keys in
        let* () = if Array.length sets = n then Ok () else Error "leaf arrays differ in length" in
        let* () = sized ~root "leaf" n ~lo:min_entries in
        let rec entries i =
          if i = n then Ok 0
          else
            let k = keys.(i) in
            let* () =
              match !last with
              | Some p when Value.compare_total p k >= 0 ->
                  Error (Printf.sprintf "key %s after %s" (Value.to_string k) (Value.to_string p))
              | _ -> Ok ()
            in
            let* () =
              if Ids.is_empty sets.(i) then
                Error (Printf.sprintf "empty set at %s" (Value.to_string k))
              else Ok ()
            in
            last := Some k;
            entries (i + 1)
        in
        entries 0
    | Node { mins; kids } ->
        let n = Array.length kids in
        let* () = if Array.length mins = n then Ok () else Error "inner arrays differ in length" in
        let* () = sized ~root "inner node" n ~lo:(if root then 2 else min_entries) in
        let* () = if n >= 2 then Ok () else Error "inner node with one child" in
        let rec children i depth =
          if i = n then Ok (depth + 1)
          else
            let* d = go ~root:false kids.(i) in
            let* () =
              if Value.compare_total mins.(i) (least kids.(i)) = 0 then Ok ()
              else Error (Printf.sprintf "least key %s misstated" (Value.to_string (least kids.(i))))
            in
            if i > 0 && d <> depth then Error "leaves at different depths" else children (i + 1) d
        in
        children 0 0
  in
  Result.map ignore (go ~root:true m)
