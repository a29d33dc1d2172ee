(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

    The frame checksum of the write-ahead journal and the snapshot
    header.  CRC-32 detects every burst error up to 32 bits — in
    particular any single corrupted byte — which is exactly the failure
    model of the torn-write fault injection (see DESIGN.md).  Table
    driven; OCaml's 63-bit native ints hold the 32-bit registers
    directly. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(** [digest ?pos s] is the CRC-32 of [s] from byte [pos] (default 0)
    to its end. *)
let digest ?(pos = 0) (s : string) : int =
  if pos < 0 || pos > String.length s then invalid_arg "Crc32.digest";
  let table = Lazy.force table in
  let c = ref 0xFFFFFFFF in
  for i = pos to String.length s - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(** Zero-padded lowercase hex, 8 digits. *)
let to_hex (c : int) : string = Printf.sprintf "%08x" c
