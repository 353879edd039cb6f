(* Durable campaign-service state: the campaign fingerprint plus every
   accepted shard result and its audit bookkeeping, a record sealed and
   replaced atomically like the single-process campaign checkpoint
   (Fmc_prelude.Record), embedding the same serializers
   (Ssf.Tally.to_string, Campaign.quarantine_entry_to_string).
   Restoring seeds the lease table's Done set, so a restarted service
   resumes without re-running finished shards — and because shard
   results depend only on (seed, shard), the resumed campaign's merged
   report is still bit-identical. *)

open Fmc
module Record = Fmc_prelude.Record
module Audit = Fmc_audit.Audit

let format_version = 3

type audit = { au_entries : Audit.entry list; au_banned : string list }

type state = {
  st_fingerprint : string;
  st_shards : (int * string) list;  (* ascending shard id, tally blobs *)
  st_quarantined : Campaign.quarantine_entry list;
  st_audit : audit;
}

let save ~path state =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "faultmc-dist %d\n" format_version;
  Printf.bprintf buf "fingerprint %s\n" state.st_fingerprint;
  Printf.bprintf buf "shards %d\n" (List.length state.st_shards);
  List.iter
    (fun (i, blob) -> Record.add_blob buf (Printf.sprintf "shard %d" i) blob)
    state.st_shards;
  Record.add_section buf "quarantined"
    (List.map Campaign.quarantine_entry_to_string state.st_quarantined);
  let a = state.st_audit in
  Record.add_section buf "audits"
    (List.map
       (fun (e : Audit.entry) ->
         (* worker last: names may contain spaces, the rest parse as
            single fields *)
         Printf.sprintf "audit %d %d %s %s" e.au_shard (if e.au_passed then 1 else 0) e.au_digest
           e.au_worker)
       a.au_entries);
  Record.add_section buf "banned" a.au_banned;
  Buffer.add_string buf "end\n";
  Record.write_sealed ~path (Buffer.contents buf)

let check_header header =
  match String.split_on_char ' ' header with
  | [ "faultmc-dist"; v ] when v = string_of_int format_version -> ()
  | [ "faultmc-dist"; v ] ->
      Record.fail "unsupported faultmc-dist version %S (this binary reads only v%d)" v
        format_version
  | _ -> Record.fail "not a faultmc-dist checkpoint"

let load ~path =
  let body c =
    let st_fingerprint = Record.rest c "fingerprint" in
    let st_shards =
      Record.take (Record.count c "shards") (fun () ->
          match Record.fields c "shard" with
          | [ i; n ] -> (Record.int_of "shard id" i, Record.blob c (Record.int_of "shard lines" n))
          | _ -> Record.fail "bad shard header")
    in
    let st_quarantined =
      Record.section c "quarantined" (fun line ->
          match Campaign.quarantine_entry_of_string line with
          | Ok e -> e
          | Error m -> Record.fail "quarantine entry: %s" m)
    in
    let au_entries =
      Record.section c "audits" (fun line ->
          match Record.words "audit" line with
          | shard :: passed :: digest :: worker ->
              let au_shard =
                match int_of_string_opt shard with
                | Some i when i >= 0 -> i
                | _ -> Record.fail "bad audit shard"
              in
              let au_passed =
                match passed with
                | "1" -> true
                | "0" -> false
                | _ -> Record.fail "bad audit passed flag"
              in
              {
                Audit.au_shard;
                au_passed;
                au_digest = digest;
                au_worker = String.concat " " worker;
              }
          | _ -> Record.fail "expected audit line")
    in
    let au_banned = Record.section c "banned" Fun.id in
    if Record.next c <> "end" then Record.fail "missing end marker";
    Record.finish c;
    { st_fingerprint; st_shards; st_quarantined; st_audit = { au_entries; au_banned } }
  in
  match Record.load_sealed ~path ~header:check_header body with
  | r -> r
  | exception Sys_error m -> Error m
