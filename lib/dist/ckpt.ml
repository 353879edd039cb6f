(* Durable campaign-service state: the campaign fingerprint plus every
   accepted shard result and its audit bookkeeping, written with the
   same atomic tmp+rename discipline and the same embedded serializers
   (Ssf.Tally.to_string, Campaign.quarantine_entry_to_string) as the
   single-process campaign checkpoint, and sealed with a "crc %08x"
   trailer (CRC-32 of every byte up to and including the "end" marker).
   Restoring seeds the lease table's Done set, so a restarted service
   resumes without re-running finished shards — and because shard
   results depend only on (seed, shard), the resumed campaign's merged
   report is still bit-identical. *)

open Fmc

let format_version = 3

type audit_entry = {
  au_shard : int;
  au_worker : string;
  au_digest : string;
  au_passed : bool;
}

type audit = { au_entries : audit_entry list; au_banned : string list }

type state = {
  st_fingerprint : string;
  st_shards : (int * string) list;  (* ascending shard id, tally blobs *)
  st_quarantined : Campaign.quarantine_entry list;
  st_audit : audit;
}

let blob_lines blob =
  match List.rev (String.split_on_char '\n' blob) with
  | "" :: rest -> List.rev rest
  | parts -> List.rev parts

let body_of state =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "faultmc-dist %d\n" format_version;
  pr "fingerprint %s\n" state.st_fingerprint;
  pr "shards %d\n" (List.length state.st_shards);
  List.iter
    (fun (i, blob) ->
      let ls = blob_lines blob in
      pr "shard %d %d\n" i (List.length ls);
      List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) ls)
    state.st_shards;
  pr "quarantined %d\n" (List.length state.st_quarantined);
  List.iter
    (fun e -> Buffer.add_string buf (Campaign.quarantine_entry_to_string e ^ "\n"))
    state.st_quarantined;
  let a = state.st_audit in
  pr "audits %d\n" (List.length a.au_entries);
  List.iter
    (fun e ->
      (* worker last: names may contain spaces, the rest parse as
         single fields *)
      pr "audit %d %d %s %s\n" e.au_shard (if e.au_passed then 1 else 0) e.au_digest e.au_worker)
    a.au_entries;
  pr "banned %d\n" (List.length a.au_banned);
  List.iter (fun w -> Buffer.add_string buf (w ^ "\n")) a.au_banned;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let save ~path state =
  let body = body_of state in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body;
      Printf.fprintf oc "crc %08x\n" (Crc32.string body);
      flush oc);
  Sys.rename tmp path

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Strip and verify the trailer; the returned body is what the line
   parser below consumes. *)
let verify_trailer raw =
  let n = String.length raw in
  if n = 0 || raw.[n - 1] <> '\n' then bad "truncated: missing CRC trailer";
  let tl_start =
    match String.rindex_from_opt raw (n - 2) '\n' with Some i -> i + 1 | None -> 0
  in
  let trailer = String.sub raw tl_start (n - tl_start - 1) in
  let stored =
    match String.split_on_char ' ' trailer with
    | [ "crc"; v ] when String.length v = 8 -> (
        match int_of_string_opt ("0x" ^ v) with
        | Some c -> c
        | None -> bad "malformed CRC trailer %S" trailer)
    | _ -> bad "truncated: missing CRC trailer (last line %S)" trailer
  in
  let body = String.sub raw 0 tl_start in
  let computed = Crc32.string body in
  if computed <> stored then
    bad "CRC mismatch: stored %08x, computed %08x (truncated or corrupted)" stored computed;
  body

let load ~path =
  let parse_raw raw =
    let header =
      match String.index_opt raw '\n' with
      | Some i -> String.sub raw 0 i
      | None -> bad "missing header line"
    in
    (match String.split_on_char ' ' header with
    | [ "faultmc-dist"; v ] when v = string_of_int format_version -> ()
    | [ "faultmc-dist"; v ] ->
        bad "unsupported faultmc-dist version %S (this binary reads only v%d)" v format_version
    | _ -> bad "not a faultmc-dist checkpoint");
    let body = verify_trailer raw in
    let lines = ref (String.split_on_char '\n' body) in
    let next () =
      match !lines with
      | [] | [ "" ] -> bad "truncated checkpoint"
      | l :: rest ->
          lines := rest;
          l
    in
    ignore (next () : string);
    let fp_line = next () in
    let st_fingerprint =
      if String.length fp_line >= 12 && String.sub fp_line 0 12 = "fingerprint " then
        String.sub fp_line 12 (String.length fp_line - 12)
      else bad "expected fingerprint line"
    in
    let count kw =
      match String.split_on_char ' ' (next ()) with
      | [ k; n ] when k = kw -> (
          match int_of_string_opt n with Some i when i >= 0 -> i | _ -> bad "bad %s count" kw)
      | _ -> bad "expected %s line" kw
    in
    let nshards = count "shards" in
    let st_shards =
      List.init nshards (fun _ ->
          match String.split_on_char ' ' (next ()) with
          | [ "shard"; i; n ] -> (
              match (int_of_string_opt i, int_of_string_opt n) with
              | Some i, Some n when n >= 0 ->
                  let buf = Buffer.create 1024 in
                  for _ = 1 to n do
                    Buffer.add_string buf (next ());
                    Buffer.add_char buf '\n'
                  done;
                  (i, Buffer.contents buf)
              | _ -> bad "bad shard header")
          | _ -> bad "expected shard line")
    in
    let nq = count "quarantined" in
    let st_quarantined =
      List.init nq (fun _ ->
          match Campaign.quarantine_entry_of_string (next ()) with
          | Ok e -> e
          | Error m -> bad "quarantine entry: %s" m)
    in
    let na = count "audits" in
    let au_entries =
      List.init na (fun _ ->
          match String.split_on_char ' ' (next ()) with
          | "audit" :: shard :: passed :: digest :: worker ->
              let au_shard =
                match int_of_string_opt shard with
                | Some i when i >= 0 -> i
                | _ -> bad "bad audit shard"
              in
              let au_passed =
                match passed with "1" -> true | "0" -> false | _ -> bad "bad audit passed flag"
              in
              { au_shard; au_passed; au_digest = digest; au_worker = String.concat " " worker }
          | _ -> bad "expected audit line")
    in
    let nb = count "banned" in
    let au_banned = List.init nb (fun _ -> next ()) in
    let st_audit = { au_entries; au_banned } in
    if next () <> "end" then bad "missing end marker";
    { st_fingerprint; st_shards; st_quarantined; st_audit }
  in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | raw -> ( match parse_raw raw with s -> Ok s | exception Bad m -> Error m)
  | exception Sys_error m -> Error m
