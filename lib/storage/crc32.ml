(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

    The frame checksum of the write-ahead journal and the snapshot
    header.  CRC-32 detects every burst error up to 32 bits — in
    particular any single corrupted byte — which is exactly the failure
    model of the torn-write fault injection (see DESIGN.md).  Computed
    by slicing-by-8: eight 256-entry tables fold eight bytes into the
    register per step, where the classic one-table loop folds one.
    OCaml's 63-bit native ints hold the 32-bit registers directly. *)

(* [tables.(k * 256 + b)] is the register after byte [b] followed by
   [k] zero bytes, starting from 0: slice 0 is the classic table *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(** [digest ?pos ?len s] is the CRC-32 of the [len] bytes of [s] from
    byte [pos] (defaults: 0, and the rest of [s]). *)
let digest ?(pos = 0) ?len (s : string) : int =
  let n = String.length s in
  let stop = match len with Some l -> pos + l | None -> n in
  if pos < 0 || pos > n || stop < pos || stop > n then invalid_arg "Crc32.digest";
  let t = Lazy.force tables in
  let byte i = Char.code (String.unsafe_get s i) in
  (* every table index below is masked to a byte, and every byte
     offset is within [pos, stop) *)
  let tb k x = Array.unsafe_get t ((k * 256) + (x land 0xff)) in
  let c = ref 0xFFFFFFFF and i = ref pos in
  while !i + 8 <= stop do
    let j = !i in
    let x =
      !c lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16) lor (byte (j + 3) lsl 24))
    in
    c :=
      tb 7 x lxor tb 6 (x lsr 8) lxor tb 5 (x lsr 16) lxor tb 4 (x lsr 24)
      lxor tb 3 (byte (j + 4)) lxor tb 2 (byte (j + 5)) lxor tb 1 (byte (j + 6))
      lxor tb 0 (byte (j + 7));
    i := j + 8
  done;
  for j = !i to stop - 1 do
    c := tb 0 (!c lxor byte j) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(** Zero-padded lowercase hex, 8 digits. *)
let to_hex (c : int) : string = Printf.sprintf "%08x" c
