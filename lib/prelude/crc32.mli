(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]) — the
    integrity checksum shared by the wire frame codec (DESIGN.md §11)
    and the [crc %08x] trailers of {!Record}'s sealed files: every
    checkpoint and the scheduler's queue log (DESIGN.md §7, §12).

    The digest is returned as a non-negative [int] in [[0, 2^32)] so it
    stores losslessly in OCaml's 63-bit native int, and serializes as a
    4-byte big-endian word in a wire frame. *)

val string : string -> int
(** CRC-32 of a whole string. [string "123456789" = 0xCBF43926]. *)

val extend : int -> string -> int
(** Continue a running digest: [extend (string a) b = string (a ^ b)].
    Lets the frame codec checksum [tag ++ payload] without concatenating
    them. *)

val extend_sub : int -> Bytes.t -> pos:int -> len:int -> int
(** [extend] over a byte range, for the read path's frame buffer. *)
