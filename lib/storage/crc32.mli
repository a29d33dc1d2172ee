(** CRC-32 (IEEE 802.3, reflected): the frame checksum of the journal
    and the snapshot header.  Detects all burst errors up to 32 bits —
    in particular any single corrupted byte. *)

(** [digest ?pos ?len s] is the CRC-32 of the [len] bytes of [s] from
    byte [pos]: by default from byte 0, to the end of [s].
    @raise Invalid_argument when [pos] is outside [0 .. String.length s]
    or [len] is negative or runs past the end of [s]. *)
val digest : ?pos:int -> ?len:int -> string -> int

(** Zero-padded lowercase hex, 8 digits. *)
val to_hex : int -> string
