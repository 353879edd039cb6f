(** Line-oriented record framing shared by every text codec: the tally
    snapshot blob ([Ssf.Tally]), the campaign checkpoint ([Campaign]),
    the campaign-service checkpoint ([Fmc_dist.Ckpt]), the wire
    protocol's payloads ([Fmc_dist.Protocol]) and the telemetry blob
    ([Fmc_obs.Telemetry]).

    A record is newline-terminated lines of space-separated words.
    Sections are count-prefixed (["kw n"], then [n] items); a blob is
    another record embedded as a line-counted section; floats are hex
    literals. A file on disk is a record sealed by a ["crc %08x"]
    trailer line, the CRC-32 of every byte before it, and is replaced
    atomically. Decoders read through a {!cursor} under {!parse} or
    {!load_sealed}, which turn every failure into an [Error]. *)

(** {2 Writing} *)

val hexf : float -> string
(** ["%h"]: a hex float literal, which [float_of_string] reads back
    bit-exactly. *)

val one_line : string -> string
(** Newlines and carriage returns become spaces, so a free-text field
    stays on its line. *)

val add_line : Buffer.t -> string -> unit
(** Append a line and its newline. *)

val add_section : Buffer.t -> string -> string list -> unit
(** [add_section buf head items] appends ["head n"], then the [n]
    items, one line each. *)

val add_blob : Buffer.t -> string -> string -> unit
(** [add_blob buf head blob]: [add_section] of the lines of [blob] (the
    empty string after its final newline dropped), a text embedded as a
    line-counted section. *)

(** {2 Reading} *)

type cursor
(** The unread lines of a record. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Abort the decoder running under {!parse} or {!load_sealed}; the
    message becomes its [Error]. *)

val parse : (cursor -> 'a) -> string -> ('a, string) result
(** [parse decode text] runs [decode] over the lines of [text], which
    must be empty or end with a newline. Every {!fail}, and any
    [Failure] or [Invalid_argument] the decoder lets escape, becomes
    [Error]: no malformed input raises. *)

val next : cursor -> string
(** The next line; fails when none is left. *)

val peek_is : cursor -> string -> bool
(** Whether the next line's first word is the given keyword. *)

val words : string -> string -> string list
(** [words kw line]: the words of [line] after its first, which must be
    [kw]. *)

val fields : cursor -> string -> string list
(** [fields c kw] is [words kw (next c)]. *)

val field : cursor -> string -> string
(** The one word after [kw] on the next line. *)

val rest : cursor -> string -> string
(** Everything after ["kw "] on the next line ([""] for a bare [kw]),
    spaces included. *)

val int_of : string -> string -> int
(** [int_of what token]. *)

val float_of : string -> string -> float

val count : cursor -> string -> int
(** The number on the next line, ["kw n"]. *)

val take : int -> (unit -> 'a) -> 'a list
(** [take n item] reads [n] items in order; fails when [n] is
    negative. Every decoded count reaches the lines it counts through
    [take], {!section} or {!blob}, so this is its one check. *)

val section : cursor -> string -> (string -> 'a) -> 'a list
(** Read what {!add_section} wrote: a ["kw n"] line, then [n] lines,
    each mapped by the function. *)

val blob : cursor -> int -> string
(** [blob c n]: the next [n] lines as one newline-terminated text, the
    inverse of {!add_blob}'s body; fails when [n] is negative. *)

val finish : cursor -> unit
(** Fails unless every line was read. Decoders whose records end where
    their last section ends call it last; the protocol's do not, because
    its optional extension sections ride after the message. *)

(** {2 Sealed files} *)

val write_sealed : path:string -> string -> unit
(** Write [body] and its ["crc %08x"] trailer to [path ^ ".tmp"], then
    rename it onto [path]: a crash mid-write leaves the previous file
    intact. *)

val load_sealed :
  path:string -> header:(string -> unit) -> (cursor -> 'a) -> ('a, string) result
(** Read [path], hand its first line to [header] (which {!fail}s on a
    foreign or unsupported header), verify the CRC trailer, then run the
    decoder over the lines after the header, as {!parse} does. The
    header is checked first so a file of another version is named as
    such rather than as corrupt. Raises [Sys_error] when the file cannot
    be read. *)
