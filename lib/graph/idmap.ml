(** Id-keyed persistent tries; see the interface. *)

(* five key bits per level *)
let level = 5
let width = 1 lsl level
let mask = width - 1
let full = (1 lsl width) - 1

(* In a node's bitmap, bit [s] is set when slot [s] holds something;
   the node's array holds the present slots only, in slot order. *)
type 'a node =
  | Nil  (** only as the root of the empty map *)
  | Leaf of { bits : int; vals : 'a array }  (** ids [base .. base + 31] *)
  | Inner of { bits : int; kids : 'a node array }

(* [shift] is the root's height in key bits: a leaf sits at shift 0,
   and an inner node at shift [s] picks its slot with the key's bits
   [s .. s + 4] *)
type 'a t = { count : int; shift : int; root : 'a node }

let empty = { count = 0; shift = 0; root = Nil }
let cardinal m = m.count

(* the number of set bits of a 32-bit bitmap *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

(* the array index of slot [s] in a node with bitmap [b] *)
let index b s = if b = full then s else popcount (b land ((1 lsl s) - 1))
let slot key shift = (key lsr shift) land mask

(* the lowest root shift whose node covers [key] *)
let height key =
  let rec go shift = if key lsr shift > mask then go (shift + level) else shift in
  go 0

let find_opt key m =
  if key < 0 || key lsr m.shift > mask then None
  else
    let rec go shift = function
      | Nil -> None
      | Leaf { bits; vals } ->
          let s = key land mask in
          if bits land (1 lsl s) = 0 then None else Some (Array.unsafe_get vals (index bits s))
      | Inner { bits; kids } ->
          let s = slot key shift in
          if bits land (1 lsl s) = 0 then None
          else go (shift - level) (Array.unsafe_get kids (index bits s))
    in
    go m.shift m.root

let mem key m =
  key >= 0
  && key lsr m.shift <= mask
  &&
  let rec go shift = function
    | Nil -> false
    | Leaf { bits; _ } -> bits land (1 lsl (key land mask)) <> 0
    | Inner { bits; kids } ->
        let s = slot key shift in
        bits land (1 lsl s) <> 0 && go (shift - level) (Array.unsafe_get kids (index bits s))
  in
  go m.shift m.root

(* --- single-key updates -------------------------------------------- *)

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

(* [a], of two or more elements, without index [i]: the dropped element
   is in no slot of the copy *)
let remove_at a i =
  let n = Array.length a in
  let b = Array.make (n - 1) a.(if i = 0 then 1 else 0) in
  Array.blit a 0 b 0 i;
  Array.blit a (i + 1) b i (n - i - 1);
  b

(* the path from a node at [shift] down to [key]'s leaf, holding [v] *)
let rec path key v shift =
  if shift = 0 then Leaf { bits = 1 lsl (key land mask); vals = [| v |] }
  else Inner { bits = 1 lsl slot key shift; kids = [| path key v (shift - level) |] }

(* [m] with its root raised until it covers [key]: each raise makes the
   old root slot 0 of a new one *)
let grow key m =
  if key lsr m.shift <= mask then m
  else
    match m.root with
    | Nil -> { m with shift = height key }
    | root ->
        let rec up shift root =
          if key lsr shift <= mask then { m with shift; root }
          else up (shift + level) (Inner { bits = 1; kids = [| root |] })
        in
        up (m.shift + level) (Inner { bits = 1; kids = [| root |] })

(* binds [key], which [grow] has brought into range, in place of any
   binding it has *)
let set key v m =
  let rec go shift = function
    | Nil -> path key v shift
    | Leaf { bits; vals } ->
        let s = key land mask in
        let i = index bits s in
        if bits land (1 lsl s) <> 0 then Leaf { bits; vals = replace_at vals i v }
        else Leaf { bits = bits lor (1 lsl s); vals = insert_at vals i v }
    | Inner { bits; kids } ->
        let s = slot key shift in
        let i = index bits s in
        if bits land (1 lsl s) <> 0 then
          Inner { bits; kids = replace_at kids i (go (shift - level) kids.(i)) }
        else
          Inner { bits = bits lor (1 lsl s); kids = insert_at kids i (path key v (shift - level)) }
  in
  go m.shift m.root

(* [m] with [key] bound to [v]; [fresh] says [key] was unbound *)
let bind key v ~fresh m =
  if key < 0 then invalid_arg "Idmap.add: negative key";
  let m = grow key m in
  { m with count = (if fresh then m.count + 1 else m.count); root = set key v m }

let add key v m = bind key v ~fresh:(not (mem key m)) m

(* unbinds [key] in one descent, returning [m] itself when [key] is
   unbound: a node left empty is dropped from its parent, and a root
   left with slot 0 alone gives way to that child *)
let remove key m =
  let rec go shift node =
    match node with
    | Nil -> node
    | Leaf { bits; vals } ->
        let s = key land mask in
        let rest = bits land lnot (1 lsl s) in
        if rest = bits then node
        else if rest = 0 then Nil
        else Leaf { bits = rest; vals = remove_at vals (index bits s) }
    | Inner { bits; kids } -> (
        let s = slot key shift in
        if bits land (1 lsl s) = 0 then node
        else
          let i = index bits s in
          let kid = kids.(i) in
          match go (shift - level) kid with
          | Nil ->
              let rest = bits land lnot (1 lsl s) in
              if rest = 0 then Nil else Inner { bits = rest; kids = remove_at kids i }
          | kid' -> if kid' == kid then node else Inner { bits; kids = replace_at kids i kid' })
  in
  let rec lower shift = function
    | Inner { bits = 1; kids } -> lower (shift - level) kids.(0)
    | Nil -> empty
    | root -> { count = m.count - 1; shift; root }
  in
  if key < 0 || key lsr m.shift > mask then m
  else
    let root = go m.shift m.root in
    if root == m.root then m else lower m.shift root

let update key f m =
  let old = find_opt key m in
  match (f old, old) with
  | None, None -> m
  | None, Some _ -> remove key m
  | Some v, _ -> bind key v ~fresh:(Option.is_none old) m

(* --- building from ascending keys ---------------------------------- *)

let add_ascending n key f m =
  if n = 0 then m
  else begin
    if key 0 < 0 then invalid_arg "Idmap.add_ascending: negative key";
    for i = 1 to n - 1 do
      if key (i - 1) >= key i then invalid_arg "Idmap.add_ascending: keys do not ascend"
    done;
    let added = ref 0 in
    (* [cuts shift lo hi] splits keys [lo .. hi - 1] by their slot at
       [shift]: slot [s] takes [cut.(s) .. cut.(s + 1) - 1] *)
    let cuts shift lo hi =
      let cut = Array.make (width + 1) hi and i = ref lo in
      for s = 0 to mask do
        cut.(s) <- !i;
        while !i < hi && slot (key !i) shift = s do
          incr i
        done
      done;
      cut
    in
    (* the node at [shift] holding [node]'s bindings and keys [lo .. hi
       - 1], which it covers *)
    let rec build shift node lo hi =
      let cut = cuts shift lo hi in
      let old_bits = match node with Nil -> 0 | Leaf { bits; _ } | Inner { bits; _ } -> bits in
      let had s = old_bits land (1 lsl s) <> 0 and fresh s = cut.(s) < cut.(s + 1) in
      let bits = ref old_bits in
      for s = 0 to mask do
        if fresh s then bits := !bits lor (1 lsl s)
      done;
      let bits = !bits in
      (* [o] walks the old node's array alongside the slots *)
      let o = ref 0 in
      if shift = 0 then begin
        let old = match node with Leaf l -> l.vals | _ -> [||] in
        let vals = ref [||] and k = ref 0 in
        let put v =
          if !k = 0 then vals := Array.make (popcount bits) v;
          !vals.(!k) <- v;
          incr k
        in
        for s = 0 to mask do
          (* a leaf's keys are distinct slots: one key per fresh slot *)
          if fresh s then begin
            if not (had s) then incr added;
            put (f cut.(s) (if had s then Some old.(!o) else None))
          end
          else if had s then put old.(!o);
          if had s then incr o
        done;
        Leaf { bits; vals = !vals }
      end
      else begin
        let old = match node with Inner n -> n.kids | _ -> [||] in
        let kids = Array.make (popcount bits) Nil and k = ref 0 in
        for s = 0 to mask do
          if fresh s || had s then begin
            kids.(!k) <-
              (if not (fresh s) then old.(!o)
               else build (shift - level) (if had s then old.(!o) else Nil) cut.(s) cut.(s + 1));
            incr k
          end;
          if had s then incr o
        done;
        Inner { bits; kids }
      end
    in
    let m = grow (key (n - 1)) m in
    let root = build m.shift m.root 0 n in
    { m with count = m.count + !added; root }
  end

(* --- enumeration --------------------------------------------------- *)

(* the bindings under [node], which sits at [shift] and covers the keys
   from [base] *)
let rec fold_node f shift base node acc =
  match node with
  | Nil -> acc
  | Leaf { bits; vals } ->
      let rec slots s i acc =
        if bits lsr s = 0 then acc
        else if bits land (1 lsl s) = 0 then slots (s + 1) i acc
        else slots (s + 1) (i + 1) (f (base lor s) vals.(i) acc)
      in
      slots 0 0 acc
  | Inner { bits; kids } ->
      let rec slots s i acc =
        if bits lsr s = 0 then acc
        else if bits land (1 lsl s) = 0 then slots (s + 1) i acc
        else
          slots (s + 1) (i + 1)
            (fold_node f (shift - level) (base lor (s lsl shift)) kids.(i) acc)
      in
      slots 0 0 acc

let fold f m acc = fold_node f m.shift 0 m.root acc

let fold_desc f m acc =
  let rec go shift base node acc =
    match node with
    | Nil -> acc
    | Leaf { bits; vals } ->
        let rec slots s i acc =
          if s < 0 then acc
          else if bits land (1 lsl s) = 0 then slots (s - 1) i acc
          else slots (s - 1) (i - 1) (f (base lor s) vals.(i) acc)
        in
        slots mask (Array.length vals - 1) acc
    | Inner { bits; kids } ->
        let rec slots s i acc =
          if s < 0 then acc
          else if bits land (1 lsl s) = 0 then slots (s - 1) i acc
          else slots (s - 1) (i - 1) (go (shift - level) (base lor (s lsl shift)) kids.(i) acc)
        in
        slots mask (Array.length kids - 1) acc
  in
  go m.shift 0 m.root acc

(* --- difference -------------------------------------------------- *)

(* [root] at [shift], raised to [top] the way [grow] raises a root: as
   slot 0 of each new level *)
let rec lift shift top root =
  if shift >= top || root == Nil then root
  else lift (shift + level) top (Inner { bits = 1; kids = [| root |] })

let fold_diff f a b acc =
  let only_a = fold_node (fun k v acc -> f k (Some v) None acc)
  and only_b = fold_node (fun k v acc -> f k None (Some v) acc) in
  (* [na] and [nb] sit at [shift] and cover the keys from [base]; at one
     shift both are leaves or both inner nodes *)
  let rec go shift base na nb acc =
    if na == nb then acc
    else
      match (na, nb) with
      | _, Nil -> only_a shift base na acc
      | Nil, _ -> only_b shift base nb acc
      | Leaf { bits = ba; vals = va }, Leaf { bits = bb; vals = vb } ->
          let get bits vals s = if bits land (1 lsl s) = 0 then None else Some vals.(index bits s) in
          let rec slots s acc =
            if (ba lor bb) lsr s = 0 then acc
            else
              slots (s + 1)
                (match (get ba va s, get bb vb s) with
                | None, None -> acc
                | Some x, Some y when x == y -> acc
                | x, y -> f (base lor s) x y acc)
          in
          slots 0 acc
      | Inner { bits = ba; kids = ka }, Inner { bits = bb; kids = kb } ->
          let kid bits kids s = if bits land (1 lsl s) = 0 then Nil else kids.(index bits s) in
          let rec slots s acc =
            if (ba lor bb) lsr s = 0 then acc
            else
              slots (s + 1)
                (go (shift - level) (base lor (s lsl shift)) (kid ba ka s) (kid bb kb s) acc)
          in
          slots 0 acc
      | _ -> assert false
  in
  let shift = max a.shift b.shift in
  go shift 0 (lift a.shift shift a.root) (lift b.shift shift b.root) acc

(* --- footprint and shape ------------------------------------------- *)

(* a node is a two-field block (3 words) plus its array (1 + length);
   the map record is 4 *)
let words m =
  let rec go = function
    | Nil -> 0
    | Leaf { vals; _ } -> 4 + Array.length vals
    | Inner { kids; _ } ->
        Array.fold_left (fun acc kid -> acc + go kid) (4 + Array.length kids) kids
  in
  4 + go m.root

let check m =
  let ( let* ) = Result.bind in
  (* bits counted one by one, not by [popcount] *)
  let scan bits =
    let n = ref 0 in
    for s = 0 to mask do
      if bits land (1 lsl s) <> 0 then incr n
    done;
    !n
  in
  let node_ok what bits len =
    if bits = 0 then Error (what ^ " is empty")
    else if bits land lnot full <> 0 then
      Error (Printf.sprintf "%s bitmap %x is wider than %d bits" what bits width)
    else if scan bits <> len then
      Error (Printf.sprintf "%s has %d bits but %d values" what (scan bits) len)
    else Ok ()
  in
  let rec go shift base node =
    match node with
    | Nil -> Error (Printf.sprintf "empty node under id %d" base)
    | Leaf { bits; vals } ->
        if shift <> 0 then Error (Printf.sprintf "leaf at id %d above the bottom level" base)
        else
          let* () = node_ok (Printf.sprintf "leaf at id %d" base) bits (Array.length vals) in
          Ok (Array.length vals)
    | Inner { bits; kids } ->
        if shift = 0 then Error (Printf.sprintf "inner node at id %d on the bottom level" base)
        else
          let* () = node_ok (Printf.sprintf "inner node at id %d" base) bits (Array.length kids) in
          let rec kids_ok s i total =
            if s > mask then Ok total
            else if bits land (1 lsl s) = 0 then kids_ok (s + 1) i total
            else
              let* n = go (shift - level) (base lor (s lsl shift)) kids.(i) in
              kids_ok (s + 1) (i + 1) (total + n)
          in
          kids_ok 0 0 0
  in
  let* total =
    match m.root with
    | Nil -> if m.shift = 0 then Ok 0 else Error "empty map with a raised root"
    | Inner { bits = 1; _ } -> Error "root holds slot 0 alone: it is higher than its keys need"
    | root -> go m.shift 0 root
  in
  if total = m.count then Ok ()
  else Error (Printf.sprintf "count %d but %d bindings" m.count total)
