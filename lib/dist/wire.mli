(** Byte transport for the distributed campaign service (DESIGN.md §10–11).

    A v2 frame is
    [[4-byte BE word = 4 + payload length][1 tag byte][4-byte BE CRC-32][payload]].
    The tag identifies the message ({!Protocol} owns the tag space); the
    payload is an opaque string; the checksum covers tag ++ payload. The
    length word counts everything after the tag byte, so a reader
    consumes exactly the sender's bytes even when the checksum fails —
    payload corruption can never desynchronize the stream. Length words
    above {!max_frame} tear the connection down rather than allocating
    attacker-controlled amounts. *)

exception Closed
(** Peer closed the connection (EOF mid-frame counts). *)

exception Protocol_error of string
(** The byte stream violates the framing: oversized length word, frame
    too short to carry its checksum, or CRC mismatch. The connection
    must be abandoned ({!read_frame} consumed the frame, but its content
    cannot be trusted). *)

exception Timeout
(** A socket deadline expired ([deadline_s] on {!conn}) mid-read or
    mid-write. *)

val max_frame : int

type conn

val conn :
  ?on_sent:(int -> unit) ->
  ?on_recv:(int -> unit) ->
  ?deadline_s:float ->
  Unix.file_descr ->
  conn
(** Wrap a connected socket. [on_sent]/[on_recv] observe the exact wire
    byte counts (header included) of each frame — the hook the metrics
    counters ([fmc_dist_bytes_sent_total] / [..._received_total]) hang
    off. [deadline_s > 0] bounds every subsequent read and write
    ([SO_RCVTIMEO]/[SO_SNDTIMEO]); an expired deadline raises
    {!Timeout}. Default: unbounded. *)

val write_frame : conn -> tag:char -> string -> unit

val read_frame : conn -> char * string
(** Raises {!Protocol_error} on a corrupt frame. *)

val read_frame_raw : conn -> [ `Ok of char * string | `Corrupt of char * string ]
(** Like {!read_frame}, but surfaces a corrupt frame's tag and raw body
    (checksum bytes included) instead of raising, so the service can
    charge the sender and answer before hanging up. *)

val close : conn -> unit

(** {2 Addresses} *)

type addr =
  | Tcp of string * int
  | Unix_path of string  (** a filesystem Unix-domain socket *)

val parse_addr : string -> (addr, string) result
(** ["HOST:PORT"] or ["unix:PATH"]. *)

val addr_to_string : addr -> string
(** Inverse of {!parse_addr}. *)

val listen : addr -> Unix.file_descr
(** Bound, listening socket. A stale Unix socket path is unlinked first;
    TCP sockets get [SO_REUSEADDR]. *)

val connect : ?attempts:int -> ?delay_s:float -> addr -> Unix.file_descr
(** Connect, retrying up to [attempts] times (default 1) [delay_s] apart
    (default 0.5) — lets a worker start before its service is
    listening. Raises the last connection error. *)
