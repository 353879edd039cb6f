(* Line-oriented record framing: the one copy of the section counts,
   blobs, hex floats, CRC seal and appended deltas that every text codec
   of the tree (tally snapshots, both checkpoints, the scheduler's queue
   log, protocol payloads, telemetry) is written in. *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let hexf = Printf.sprintf "%h"

(* String.split_on_char's loop, stopping short of the final newline so
   its empty line never enters the list. *)
let lines s =
  let n = String.length s in
  let stop = if n > 0 && s.[n - 1] = '\n' then n - 1 else n in
  let acc = ref [] and j = ref stop in
  for i = stop - 1 downto 0 do
    if String.unsafe_get s i = '\n' then begin
      acc := String.sub s (i + 1) (!j - i - 1) :: !acc;
      j := i
    end
  done;
  if n = 0 then [] else String.sub s 0 !j :: !acc

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let add_line buf l =
  Buffer.add_string buf l;
  Buffer.add_char buf '\n'

let add_section buf head items =
  Printf.bprintf buf "%s %d\n" head (List.length items);
  List.iter (add_line buf) items

let add_blob buf head blob = add_section buf head (lines blob)

(* -- reading -------------------------------------------------------------- *)

(* The unread part of a text: lines are split off [text] at [pos] as the
   decoder asks for them, so a sealed file's reader knows the byte
   offset each section ends at. *)
type cursor = { text : string; mutable pos : int; mutable lineno : int }

(* Every encoder ends its last line with a newline, so a text without
   one was cut short. *)
let cursor text =
  let n = String.length text in
  if n > 0 && text.[n - 1] <> '\n' then fail "missing final newline";
  { text; pos = 0; lineno = 0 }

let run decode =
  match decode () with
  | v -> Ok v
  | exception (Bad m | Failure m | Invalid_argument m) -> Error m

let parse decode text = run (fun () -> decode (cursor text))

(* The end of the next line; a line without its newline was cut short. *)
let line_end c =
  match String.index_from_opt c.text c.pos '\n' with
  | Some i -> i
  | None -> fail "truncated after line %d" c.lineno

let advance c eol =
  c.pos <- eol + 1;
  c.lineno <- c.lineno + 1

let next c =
  let eol = line_end c in
  let l = String.sub c.text c.pos (eol - c.pos) in
  advance c eol;
  l

let peek_is c kw =
  let t = c.text and p = c.pos and n = String.length kw in
  let rec same i = i = n || (t.[p + i] = kw.[i] && same (i + 1)) in
  p + n < String.length t && same 0 && (t.[p + n] = ' ' || t.[p + n] = '\n')

let words kw line =
  match String.split_on_char ' ' line with
  | k :: rest when k = kw -> rest
  | _ -> fail "expected %S line, got %S" kw line

let fields c kw = words kw (next c)

let field c kw =
  match fields c kw with [ v ] -> v | ws -> fail "%s wants 1 field, got %d" kw (List.length ws)

let rest c kw =
  let line = next c in
  let plen = String.length kw + 1 in
  if String.length line >= plen && String.sub line 0 plen = kw ^ " " then
    String.sub line plen (String.length line - plen)
  else if line = kw then ""
  else fail "expected %S line, got %S" kw line

let int_of what s = match int_of_string_opt s with Some i -> i | None -> fail "bad %s %S" what s

let float_of what s =
  match float_of_string_opt s with Some f -> f | None -> fail "bad %s %S" what s

let count c kw = int_of kw (field c kw)

(* List.init applies its function left to right, the cursor's order. *)
let take n item =
  if n < 0 then fail "negative count %d" n;
  List.init n (fun _ -> item ())

let section c kw item = take (count c kw) (fun () -> item (next c))

let blob c n =
  if n < 0 then fail "negative count %d" n;
  let start = c.pos in
  for _ = 1 to n do
    advance c (line_end c)
  done;
  String.sub c.text start (c.pos - start)

let finish c = if c.pos <> String.length c.text then fail "trailing data after line %d" c.lineno

(* -- sealed files --------------------------------------------------------- *)

let crc_sub s pos len = Crc32.extend_sub 0 (Bytes.unsafe_of_string s) ~pos ~len
let trailer crc = Printf.sprintf "crc %08x\n" crc
let trailer_len = 13

(* [~sync] makes a write outlive a power loss, not only its writer: the
   file is fsynced before the call returns and, after a rename, so is
   the directory holding the new name. A directory the file system will
   not fsync is left as it is. *)
let fsync oc = Unix.fsync (Unix.descr_of_out_channel oc)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write_sealed ?(sync = false) ~path body =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body;
      output_string oc (trailer (Crc32.string body));
      flush oc;
      if sync then fsync oc);
  Sys.rename tmp path;
  if sync then fsync_dir (Filename.dirname path)

(* A delta is found by its length, never by searching for a line, so no
   body line (a worker named "crc 00000000") can end it early. *)
let append_sealed ?(sync = false) ~path body =
  let head = Printf.sprintf "delta %d\n" (String.length body) in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc head;
      output_string oc body;
      output_string oc (trailer (Crc32.extend (Crc32.string head) body));
      flush oc;
      if sync then fsync oc)

(* Check a trailer line against the CRC of the bytes it seals. The
   stored word must be the writer's exact lowercase spelling, so no
   altered byte of the trailer passes either. *)
let verify ~trailer crc =
  let stored =
    match String.split_on_char ' ' trailer with
    | [ "crc"; v ] when String.length v = 8 ->
        if String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) v then v
        else fail "malformed CRC trailer %S" trailer
    | _ -> fail "truncated: missing CRC trailer (got %S)" trailer
  in
  let computed = Printf.sprintf "%08x" crc in
  if computed <> stored then
    fail "CRC mismatch: stored %s, computed %s (truncated or corrupted)" stored computed

(* Strip and verify a bare sealed file's trailer before its body is
   parsed: any framing defect means the file was truncated or corrupted
   after it was sealed, and is reported as such rather than as whatever
   parse error the damaged body would produce. *)
let unseal raw =
  let n = String.length raw in
  if n = 0 || raw.[n - 1] <> '\n' then fail "truncated: missing CRC trailer";
  let start = match String.rindex_from_opt raw (n - 2) '\n' with Some i -> i + 1 | None -> 0 in
  verify ~trailer:(String.sub raw start (n - start - 1)) (crc_sub raw 0 start);
  String.sub raw 0 start

let header_of raw header =
  match String.index_opt raw '\n' with
  | Some i -> header (String.sub raw 0 i)
  | None -> fail "missing header line"

let load_sealed ~path ~header decode =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  run (fun () ->
      header_of raw header;
      let c = cursor (unseal raw) in
      ignore (next c : string);
      decode c)

(* The delta at [p]: its body and the offset past its trailer, or [None]
   when it is cut short, misframed or fails its CRC. *)
let delta_at raw p =
  match String.index_from_opt raw p '\n' with
  | Some eol when String.starts_with ~prefix:"delta " (String.sub raw p (eol - p)) -> (
      let body_at = eol + 1 in
      match int_of_string_opt (String.sub raw (p + 6) (eol - p - 6)) with
      | Some len when len >= 0 && len <= String.length raw - body_at - trailer_len ->
          let stop = body_at + len in
          if String.sub raw stop trailer_len = trailer (crc_sub raw p (stop - p)) then
            Some (String.sub raw body_at len, stop + trailer_len)
          else None
      | _ -> None)
  | _ -> None

let load_appended ~path ~header snapshot delta =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  run (fun () ->
      header_of raw header;
      let c = { text = raw; pos = 0; lineno = 0 } in
      ignore (next c : string);
      (* The snapshot ends where its counted sections end. *)
      let v = snapshot c in
      let sealed = c.pos in
      verify ~trailer:(next c) (crc_sub raw 0 sealed);
      let rec deltas p acc =
        if p = String.length raw then (List.rev acc, true)
        else
          match delta_at raw p with
          | None -> (List.rev acc, false)
          | Some (body, p') -> (
              match parse delta body with
              | Ok d -> deltas p' (d :: acc)
              | Error _ -> (List.rev acc, false))
      in
      let ds, whole = deltas c.pos [] in
      (v, ds, whole))
