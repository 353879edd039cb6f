(* Durable campaign-service state: the campaign fingerprint plus every
   accepted shard result and its audit bookkeeping, embedding the same
   serializers as the rest of the tree (Ssf.Tally.to_string,
   Campaign.quarantine_entry_to_string).

   The file is a sealed snapshot followed by sealed deltas
   (Fmc_prelude.Record): [save] replaces it with a snapshot, tmp +
   rename like the single-process campaign checkpoint, and [append]
   adds what one accepted shard or audit pass changed, so a campaign of
   k shards writes O(k) bytes rather than O(k²). A delta carries the
   snapshot's own sections, so one codec reads both.
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

(* The sections a snapshot holds between its fingerprint and its end
   marker, and a delta holds whole. *)
let add_sections buf ~shards ~quarantined ~audits ~banned =
  Printf.bprintf buf "shards %d\n" (List.length shards);
  List.iter (fun (i, blob) -> Record.add_blob buf (Printf.sprintf "shard %d" i) blob) shards;
  Record.add_section buf "quarantined" (List.map Campaign.quarantine_entry_to_string quarantined);
  Record.add_section buf "audits"
    (List.map
       (fun (e : Audit.entry) ->
         (* worker last: names may contain spaces, the rest parse as
            single fields *)
         Printf.sprintf "audit %d %d %s %s" e.au_shard (if e.au_passed then 1 else 0) e.au_digest
           e.au_worker)
       audits);
  Record.add_section buf "banned" banned

let save ~path state =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "faultmc-dist %d\n" format_version;
  Printf.bprintf buf "fingerprint %s\n" state.st_fingerprint;
  add_sections buf ~shards:state.st_shards ~quarantined:state.st_quarantined
    ~audits:state.st_audit.au_entries ~banned:state.st_audit.au_banned;
  Buffer.add_string buf "end\n";
  Record.write_sealed ~path (Buffer.contents buf)

let append ~path ?shard ?(quarantined = []) ?(banned = []) audit =
  let blob = match shard with Some (_, b) -> String.length b | None -> 0 in
  let buf = Buffer.create (blob + 256) in
  add_sections buf ~shards:(Option.to_list shard) ~quarantined ~audits:[ audit ] ~banned;
  Record.append_sealed ~path (Buffer.contents buf)

let check_header header =
  match String.split_on_char ' ' header with
  | [ "faultmc-dist"; v ] when v = string_of_int format_version -> ()
  | [ "faultmc-dist"; v ] ->
      Record.fail "unsupported faultmc-dist version %S (this binary reads only v%d)" v
        format_version
  | _ -> Record.fail "not a faultmc-dist checkpoint"

let read_sections c ~fingerprint =
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
            { Audit.au_shard; au_passed; au_digest = digest; au_worker = String.concat " " worker }
        | _ -> Record.fail "expected audit line")
  in
  let au_banned = Record.section c "banned" Fun.id in
  { st_fingerprint = fingerprint; st_shards; st_quarantined; st_audit = { au_entries; au_banned } }

let snapshot c =
  let st = read_sections c ~fingerprint:(Record.rest c "fingerprint") in
  if Record.next c <> "end" then Record.fail "missing end marker";
  st

let delta c =
  let d = read_sections c ~fingerprint:"" in
  Record.finish c;
  d

(* Later writes win: a delta's shard, quarantine entry (by sample index)
   or audit entry (by shard) replaces an earlier one, and its banned
   workers join the list in the order they were first named. *)
let apply snap deltas =
  let latest key items =
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h (key x) x) items;
    List.sort (fun a b -> compare (key a : int) (key b)) (Hashtbl.fold (fun _ x acc -> x :: acc) h [])
  in
  let all f = f snap @ List.concat_map f deltas in
  {
    snap with
    st_shards = latest fst (all (fun s -> s.st_shards));
    st_quarantined = latest (fun q -> q.Campaign.q_index) (all (fun s -> s.st_quarantined));
    st_audit =
      {
        au_entries = latest (fun e -> e.Audit.au_shard) (all (fun s -> s.st_audit.au_entries));
        au_banned =
          List.rev
            (List.fold_left
               (fun acc w -> if List.mem w acc then acc else w :: acc)
               []
               (all (fun s -> s.st_audit.au_banned)));
      };
  }

let read ~path =
  match Record.load_appended ~path ~header:check_header snapshot delta with
  | Ok (snap, [], true) -> Ok (snap, `Snapshot)
  | Ok (snap, deltas, _) -> Ok (apply snap deltas, `Appended)
  | Error m -> Error m
  | exception Sys_error m -> Error m

let load ~path = Result.map fst (read ~path)
