(** CRC-32 (IEEE 802.3, reflected): the frame checksum of the journal
    and the snapshot header.  Detects all burst errors up to 32 bits —
    in particular any single corrupted byte. *)

(** [digest ?pos s] is the CRC-32 of [s] from byte [pos] (default 0)
    to its end.
    @raise Invalid_argument when [pos] is outside [0 .. String.length s]. *)
val digest : ?pos:int -> string -> int

(** Zero-padded lowercase hex, 8 digits. *)
val to_hex : int -> string
