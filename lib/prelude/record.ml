(* Line-oriented record framing: the one copy of the section counts,
   blobs, hex floats and CRC seal that every text codec of the tree
   (tally snapshots, both checkpoints, protocol payloads, telemetry)
   is written in. *)

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

type cursor = { mutable rest : string list; mutable lineno : int }

(* Every encoder ends its last line with a newline, so a text without
   one was cut short. *)
let cursor text =
  let n = String.length text in
  if n > 0 && text.[n - 1] <> '\n' then fail "missing final newline";
  { rest = lines text; lineno = 0 }

let run decode =
  match decode () with
  | v -> Ok v
  | exception (Bad m | Failure m | Invalid_argument m) -> Error m

let parse decode text = run (fun () -> decode (cursor text))

let next c =
  match c.rest with
  | [] -> fail "truncated after line %d" c.lineno
  | l :: tl ->
      c.rest <- tl;
      c.lineno <- c.lineno + 1;
      l

let peek_is c kw =
  match c.rest with
  | l :: _ ->
      let n = String.length kw in
      String.starts_with ~prefix:kw l && (String.length l = n || l.[n] = ' ')
  | [] -> false

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

(* One allocation: the trailing "" puts a newline after the last line. *)
let blob c n = String.concat "\n" (take n (fun () -> next c) @ [ "" ])

let finish c = if c.rest <> [] then fail "trailing data after line %d" c.lineno

(* -- sealed files --------------------------------------------------------- *)

let crc_hex body = Printf.sprintf "%08x" (Crc32.string body)

let write_sealed ~path body =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body;
      Printf.fprintf oc "crc %s\n" (crc_hex body);
      flush oc);
  Sys.rename tmp path

(* Strip and verify the trailer. Any framing defect means the file was
   truncated or corrupted after it was sealed, and is reported as such
   rather than as whatever parse error the damaged body would produce.
   The stored word must be the writer's exact lowercase spelling, so
   no altered byte of the trailer passes either. *)
let unseal raw =
  let n = String.length raw in
  if n = 0 || raw.[n - 1] <> '\n' then fail "truncated: missing CRC trailer";
  let start = match String.rindex_from_opt raw (n - 2) '\n' with Some i -> i + 1 | None -> 0 in
  let trailer = String.sub raw start (n - start - 1) in
  let stored =
    match String.split_on_char ' ' trailer with
    | [ "crc"; v ] when String.length v = 8 ->
        if String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) v then v
        else fail "malformed CRC trailer %S" trailer
    | _ -> fail "truncated: missing CRC trailer (last line %S)" trailer
  in
  let body = String.sub raw 0 start in
  let computed = crc_hex body in
  if computed <> stored then
    fail "CRC mismatch: stored %s, computed %s (truncated or corrupted)" stored computed;
  body

let load_sealed ~path ~header decode =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  run (fun () ->
      (match String.index_opt raw '\n' with
      | Some i -> header (String.sub raw 0 i)
      | None -> fail "missing header line");
      let c = cursor (unseal raw) in
      ignore (next c : string);
      decode c)
