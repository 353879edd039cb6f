(** Line-oriented record framing shared by every text codec: the tally
    snapshot blob ([Ssf.Tally]), the campaign checkpoint ([Campaign]),
    the campaign-service checkpoint ([Fmc_dist.Ckpt]), the scheduler's
    queue log ([Fmc_sched.Sched]), the wire protocol's payloads
    ([Fmc_dist.Protocol]) and the telemetry blob ([Fmc_obs.Telemetry]).

    A record is newline-terminated lines of space-separated words.
    Sections are count-prefixed (["kw n"], then [n] items); a blob is
    another record embedded as a line-counted section; floats are hex
    literals. A file on disk is a record sealed by a ["crc %08x"]
    trailer line, the CRC-32 of every byte before it, and is replaced
    atomically; a file may also grow by sealed deltas after that
    snapshot ({!append_sealed}). Decoders read through a {!cursor}
    under {!parse}, {!load_sealed} or {!load_appended}, which turn every
    failure into an [Error]. *)

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

val write_sealed : ?sync:bool -> path:string -> string -> unit
(** Write [body] and its ["crc %08x"] trailer to [path ^ ".tmp"], then
    rename it onto [path]: a crash mid-write leaves the previous file
    intact. With [~sync:true] the [.tmp] file is fsynced before the
    rename and its directory after it, so the new file survives a power
    loss once the call returns; a directory the file system will not
    fsync is skipped. The bytes written do not depend on [sync]. *)

val load_sealed :
  path:string -> header:(string -> unit) -> (cursor -> 'a) -> ('a, string) result
(** Read [path], hand its first line to [header] (which {!fail}s on a
    foreign or unsupported header), verify the CRC trailer, then run the
    decoder over the lines after the header, as {!parse} does. The
    header is checked first so a file of another version is named as
    such rather than as corrupt. Raises [Sys_error] when the file cannot
    be read. *)

(** {2 Appended files}

    A snapshot written by {!write_sealed}, then any number of deltas,
    each a ["delta n"] line giving its body's byte length, the body (a
    record), and a ["crc %08x"] trailer over that line and the body. A
    delta is found by its length and the snapshot's end by its counted
    sections, never by searching for a line, so no body line can end
    either early. *)

val append_sealed : ?sync:bool -> path:string -> string -> unit
(** Append [body] as one delta to the existing file [path]. By default
    nothing is synced: the delta survives the writer's [kill -9], not a
    power loss. With [~sync:true] the file is fsynced before the call
    returns, with the same bytes. A write cut short leaves a damaged
    tail, which {!load_appended} drops; append nothing after one.
    Raises [Sys_error] when [path] does not exist. *)

val load_appended :
  path:string ->
  header:(string -> unit) ->
  (cursor -> 'a) ->
  (cursor -> 'b) ->
  ('a * 'b list * bool, string) result
(** [load_appended ~path ~header snapshot delta] reads what
    {!write_sealed} and {!append_sealed} wrote: [header] gets the first
    line, [snapshot] decodes the lines after it up to where its sections
    end, which must be followed by the trailer of every byte before it;
    then [delta] decodes each delta's body as {!parse} does, in file
    order. The snapshot is refused ([Error]) on any truncation or byte
    change, named by the parse error or CRC mismatch it causes. The
    deltas stop at the first one that is cut short, fails its CRC or its
    decoder: it and everything after it are dropped, not refused. The
    flag is [true] when nothing was dropped. Linear in the file size.
    Raises [Sys_error] when the file cannot be read. *)
