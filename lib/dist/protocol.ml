(* Message layer of the campaign service protocol: typed messages and
   their (tag, payload) encoding over Wire frames.

   Payloads are line-oriented text, reusing the repo's serializers where
   state crosses the wire: tally snapshots travel as verbatim
   Ssf.Tally.to_string blobs (line-counted so they embed safely) and
   quarantine entries as Campaign.quarantine_entry_to_string lines — the
   same codecs the durable checkpoints use, so a snapshot is bit-exact no
   matter how many process boundaries it crossed. *)

open Fmc

(* v2: frames carry a CRC-32 trailer (Wire), and the server can answer a
   Hello with Retry_later (the worker's circuit breaker is open)
   instead of a terminal Reject.
   v3: the multi-campaign scheduler — campaign specs travel in Submit
   and Job messages, pool-scope connections (fingerprint "*") lease
   shards from any queued campaign via Job/Job_heartbeat/Job_done, and
   Status carries queue positions and ETAs.
   v4: fleet observability — trailing sections carried by the
   `extension` side-channel: Assign/Job may end with a
   "trace <trace_id> <span_id>" line and Heartbeat/Shard_done/
   Job_heartbeat/Job_done with a line-counted "telemetry" blob
   (Fmc_obs.Telemetry, opaque here).
   v5: result auditing — Shard_done/Job_done may end with a
   "digest <hex>" line (before any telemetry section): the canonical
   result digest (Fmc_audit.Check.result_digest) computed worker-side
   so the server can cheaply detect corrupt-in-transit or lying
   payloads.
   Every peer is built from this tree, so a server admits exactly this
   version and answers any other Hello with a terminal Reject. *)
let version = 5

(* The campaign fingerprint hashes only things that change per-sample
   outcomes; v4 and v5 added no such thing, so the embedded version
   stays 3. *)
let fingerprint_version = 3

let accepts_version v = v = version

(* The full identity of a campaign: every parameter that must agree
   between the submitting client and the evaluating worker for the shard
   results to be meaningful. This is what a Submit enqueues and a Job
   hands to a pool worker. *)
type spec = {
  sp_benchmark : string;
  sp_strategy : string;
  sp_samples : int;
  sp_seed : int;
  sp_shard_size : int;
  sp_sample_budget : int option;
  sp_fault_model : string;
      (* canonical fault-model string; "disc-transient" for every spec
         written before the field existed *)
}

type campaign_state = Queued | Running | Finished | Parked | Cancelled

type status_entry = {
  st_fingerprint : string;
  st_state : campaign_state;
  st_position : int;
  st_queue_len : int;
  st_samples_done : int;
  st_samples_total : int;
  st_rate : float;
  st_eta_s : float;
  st_detail : string;
}

type client_msg =
  | Hello of { version : int; worker : string; fingerprint : string }
  | Request_shard
  | Heartbeat of { shard : int; epoch : int; samples_done : int }
  | Shard_done of {
      shard : int;
      epoch : int;
      tally : string;
      quarantined : Campaign.quarantine_entry list;
    }
  | Fetch_report
  | Goodbye
  | Submit of { spec : spec }
  | Status_req of { fingerprint : string }
  | Cancel of { fingerprint : string }
  | Job_heartbeat of { fingerprint : string; shard : int; epoch : int; samples_done : int }
  | Job_done of {
      fingerprint : string;
      shard : int;
      epoch : int;
      tally : string;
      quarantined : Campaign.quarantine_entry list;
    }

type server_msg =
  | Welcome of { version : int }
  | Assign of { shard : int; epoch : int; start : int; len : int }
  | No_work of { finished : bool }
  | Ack of { accepted : bool; reason : string }
  | Report of {
      shards : (int * string) list;
      quarantined : Campaign.quarantine_entry list;
      elapsed_s : float;
    }
  | Reject of { reason : string }
  | Retry_later of { cooldown_s : float }
  | Job of { spec : spec; shard : int; epoch : int; start : int; len : int }
  | Submitted of { fingerprint : string; position : int; cached : bool }
  | Sched_rejected of { retry_after_s : float; reason : string }
  | Status of { entries : status_entry list }

let fingerprint ?(fault_model = "disc-transient") ~strategy ~benchmark ~samples ~seed
    ~shard_size ~sample_budget () =
  let base =
    Printf.sprintf "v%d strategy=%s benchmark=%s samples=%d seed=%d shard_size=%d budget=%s"
      fingerprint_version strategy benchmark samples seed shard_size
      (match sample_budget with Some b -> string_of_int b | None -> "-")
  in
  (* Default-model fingerprints must stay byte-identical to what pre-
     fault-model peers compute, so the model component only appears when
     it deviates. Differing models still hash apart, which is all the
     handshake's opaque string equality needs to reject a mismatch. *)
  if fault_model = "disc-transient" then base else base ^ " model=" ^ fault_model

(* The scope a pool worker or control client announces in Hello instead
   of a concrete campaign fingerprint. *)
let pool_fingerprint = "*"

let spec_fingerprint sp =
  fingerprint ~fault_model:sp.sp_fault_model ~strategy:sp.sp_strategy
    ~benchmark:sp.sp_benchmark ~samples:sp.sp_samples ~seed:sp.sp_seed
    ~shard_size:sp.sp_shard_size ~sample_budget:sp.sp_sample_budget ()

let budget_word = function Some b -> string_of_int b | None -> "-"

let spec_line sp =
  Printf.sprintf "benchmark=%s strategy=%s samples=%d seed=%d shard_size=%d budget=%s model=%s"
    sp.sp_benchmark sp.sp_strategy sp.sp_samples sp.sp_seed sp.sp_shard_size
    (budget_word sp.sp_sample_budget) sp.sp_fault_model

let spec_of_line line =
  let err msg = Error (Printf.sprintf "campaign spec %S: %s" line msg) in
  let kv key word =
    let plen = String.length key + 1 in
    if String.length word > plen && String.sub word 0 plen = key ^ "=" then
      Ok (String.sub word plen (String.length word - plen))
    else Error (Printf.sprintf "expected %s=..., found %S" key word)
  in
  let parse6 b st sa se sh bu ~model =
    let ( let* ) = Result.bind in
    match
      let* sp_benchmark = kv "benchmark" b in
      let* sp_strategy = kv "strategy" st in
      let* sa = kv "samples" sa in
      let* se = kv "seed" se in
      let* sh = kv "shard_size" sh in
      let* bu = kv "budget" bu in
      let* sp_fault_model = match model with None -> Ok "disc-transient" | Some m -> kv "model" m in
      let num what v =
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "bad %s %S" what v)
      in
      let* sp_samples = num "samples" sa in
      let* sp_seed = num "seed" se in
      let* sp_shard_size = num "shard_size" sh in
      let* sp_sample_budget =
        if bu = "-" then Ok None else Result.map Option.some (num "budget" bu)
      in
      Ok
        {
          sp_benchmark;
          sp_strategy;
          sp_samples;
          sp_seed;
          sp_shard_size;
          sp_sample_budget;
          sp_fault_model;
        }
    with
    | Ok sp -> Ok sp
    | Error msg -> err msg
  in
  match String.split_on_char ' ' line with
  (* 6-field lines predate the fault-model field (WALs written before
     the bump replay as the default model). *)
  | [ b; st; sa; se; sh; bu ] -> parse6 b st sa se sh bu ~model:None
  | [ b; st; sa; se; sh; bu; m ] -> parse6 b st sa se sh bu ~model:(Some m)
  | _ -> err "wants 6 or 7 space-separated key=value fields"

let state_token = function
  | Queued -> "queued"
  | Running -> "running"
  | Finished -> "finished"
  | Parked -> "parked"
  | Cancelled -> "cancelled"

let state_of_token = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "finished" -> Some Finished
  | "parked" -> Some Parked
  | "cancelled" -> Some Cancelled
  | _ -> None

(* -- payload helpers ---------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* Split into lines, dropping a trailing empty line (the artifact of a
   final '\n'), but keeping interior empties so line counts stay honest. *)
let lines_of s =
  match String.split_on_char '\n' s with
  | [] -> []
  | parts -> (
      match List.rev parts with
      | "" :: rest -> List.rev rest
      | _ -> parts)

let blob_lines blob = lines_of blob

let restore_blob lines = String.concat "\n" lines ^ "\n"

(* Cursor over a line list. *)
type cursor = { mutable rest : string list }

let next c =
  match c.rest with
  | [] -> bad "truncated payload"
  | l :: tl ->
      c.rest <- tl;
      l

let take c n = List.init n (fun _ -> next c)

let int_of what s =
  match int_of_string_opt s with Some i -> i | None -> bad "bad %s %S" what s

let float_of what s =
  match float_of_string_opt s with Some f -> f | None -> bad "bad %s %S" what s

let fields line = String.split_on_char ' ' line

let expect_kw kw line =
  match fields line with
  | k :: rest when k = kw -> rest
  | _ -> bad "expected %S line, got %S" kw line

let rest_of_line kw line =
  let plen = String.length kw + 1 in
  if String.length line >= plen && String.sub line 0 plen = kw ^ " " then
    String.sub line plen (String.length line - plen)
  else if line = kw then ""
  else bad "expected %S line, got %S" kw line

let quarantine_of_line line =
  match Campaign.quarantine_entry_of_string line with
  | Ok e -> e
  | Error msg -> bad "quarantine entry: %s" msg

let emit_blob buf label blob =
  let ls = blob_lines blob in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" label (List.length ls));
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    ls

let emit_quarantined buf entries =
  Buffer.add_string buf (Printf.sprintf "quarantined %d\n" (List.length entries));
  List.iter
    (fun e ->
      Buffer.add_string buf (Campaign.quarantine_entry_to_string e);
      Buffer.add_char buf '\n')
    entries

let read_quarantined c =
  match expect_kw "quarantined" (next c) with
  | [ n ] -> List.init (int_of "quarantine count" n) (fun _ -> quarantine_of_line (next c))
  | _ -> bad "malformed quarantined line"

(* -- extension sections ---------------------------------------------------- *)

(* The v4/v5 additions ride as trailing sections after a message's base
   payload, carried out-of-band of the message variants so the base
   constructors stay small. *)
type extension = {
  ext_trace : (string * string) option;
      (* (trace_id, span_id) stamped on Assign/Job *)
  ext_telemetry : string option;
      (* encoded Fmc_obs.Telemetry blob on Heartbeat/Shard_done/
         Job_heartbeat/Job_done; opaque at this layer *)
  ext_digest : string option;
      (* v5: canonical result digest on Shard_done/Job_done; opaque
         here (Fmc_audit computes and compares it) *)
}

let no_extension = { ext_trace = None; ext_telemetry = None; ext_digest = None }

let starts_with ~prefix line =
  let n = String.length prefix in
  String.length line >= n && String.sub line 0 n = prefix

let read_ext_trace c =
  match c.rest with
  | line :: _ when starts_with ~prefix:"trace " line -> (
      match fields (next c) with
      | [ "trace"; t; s ] -> Some (t, s)
      | _ -> bad "malformed trace line")
  | _ -> None

let read_ext_telemetry c =
  match c.rest with
  | line :: _ when starts_with ~prefix:"telemetry " line -> (
      match expect_kw "telemetry" (next c) with
      | [ n ] -> Some (restore_blob (take c (int_of "telemetry line count" n)))
      | _ -> bad "malformed telemetry line")
  | _ -> None

let read_ext_digest c =
  match c.rest with
  | line :: _ when starts_with ~prefix:"digest " line -> (
      match fields (next c) with
      | [ "digest"; d ] -> Some d
      | _ -> bad "malformed digest line")
  | _ -> None

let emit_ext_trace buf = function
  | None -> ()
  | Some (t, s) ->
      Buffer.add_string buf (Printf.sprintf "trace %s %s\n" (one_line t) (one_line s))

let emit_ext_telemetry buf = function
  | None -> ()
  | Some blob -> emit_blob buf "telemetry" blob

let emit_ext_digest buf = function
  | None -> ()
  | Some d -> Buffer.add_string buf (Printf.sprintf "digest %s\n" (one_line d))

(* -- client messages ---------------------------------------------------- *)

let encode_client = function
  | Hello { version; worker; fingerprint } ->
      ( 'H',
        Printf.sprintf "version %d\nworker %s\nfingerprint %s\n" version
          (one_line worker) (one_line fingerprint) )
  | Request_shard -> ('R', "")
  | Heartbeat { shard; epoch; samples_done } ->
      ('B', Printf.sprintf "%d %d %d\n" shard epoch samples_done)
  | Shard_done { shard; epoch; tally; quarantined } ->
      let buf = Buffer.create (String.length tally + 256) in
      Buffer.add_string buf (Printf.sprintf "shard %d epoch %d\n" shard epoch);
      emit_blob buf "tally" tally;
      emit_quarantined buf quarantined;
      ('D', Buffer.contents buf)
  | Fetch_report -> ('F', "")
  | Goodbye -> ('G', "")
  | Submit { spec } -> ('S', Printf.sprintf "spec %s\n" (spec_line spec))
  | Status_req { fingerprint } -> ('Q', Printf.sprintf "fingerprint %s\n" (one_line fingerprint))
  | Cancel { fingerprint } -> ('C', Printf.sprintf "fingerprint %s\n" (one_line fingerprint))
  | Job_heartbeat { fingerprint; shard; epoch; samples_done } ->
      ( 'h',
        Printf.sprintf "fingerprint %s\n%d %d %d\n" (one_line fingerprint) shard epoch
          samples_done )
  | Job_done { fingerprint; shard; epoch; tally; quarantined } ->
      let buf = Buffer.create (String.length tally + 256) in
      Buffer.add_string buf (Printf.sprintf "fingerprint %s\n" (one_line fingerprint));
      Buffer.add_string buf (Printf.sprintf "shard %d epoch %d\n" shard epoch);
      emit_blob buf "tally" tally;
      emit_quarantined buf quarantined;
      ('j', Buffer.contents buf)

let encode_client_ext ?(ext = no_extension) msg =
  let tag, payload = encode_client msg in
  let digest =
    (* The digest section only rides on result messages. *)
    match msg with Shard_done _ | Job_done _ -> ext.ext_digest | _ -> None
  in
  match msg with
  | Heartbeat _ | Shard_done _ | Job_heartbeat _ | Job_done _
    when ext.ext_telemetry <> None || digest <> None ->
      let buf = Buffer.create (String.length payload + 256) in
      Buffer.add_string buf payload;
      emit_ext_digest buf digest;
      emit_ext_telemetry buf ext.ext_telemetry;
      (tag, Buffer.contents buf)
  | _ -> (tag, payload)

let decode_client_raising c tag =
  match tag with
  | 'H' -> (
      match expect_kw "version" (next c) with
      | [ v ] ->
          let worker = rest_of_line "worker" (next c) in
          let fingerprint = rest_of_line "fingerprint" (next c) in
          Ok (Hello { version = int_of "version" v; worker; fingerprint })
      | _ -> bad "malformed version line")
  | 'R' -> Ok Request_shard
  | 'B' -> (
      match fields (next c) with
      | [ s; e; d ] ->
          Ok
            (Heartbeat
               {
                 shard = int_of "shard" s;
                 epoch = int_of "epoch" e;
                 samples_done = int_of "samples_done" d;
               })
      | _ -> bad "malformed heartbeat")
  | 'D' -> (
      match fields (next c) with
      | [ "shard"; s; "epoch"; e ] -> (
          match expect_kw "tally" (next c) with
          | [ n ] ->
              let tally = restore_blob (take c (int_of "tally line count" n)) in
              let quarantined = read_quarantined c in
              Ok
                (Shard_done
                   { shard = int_of "shard" s; epoch = int_of "epoch" e; tally; quarantined })
          | _ -> bad "malformed tally line")
      | _ -> bad "malformed shard_done header")
  | 'F' -> Ok Fetch_report
  | 'G' -> Ok Goodbye
  | 'S' -> (
      match spec_of_line (rest_of_line "spec" (next c)) with
      | Ok spec -> Ok (Submit { spec })
      | Error msg -> bad "%s" msg)
  | 'Q' -> Ok (Status_req { fingerprint = rest_of_line "fingerprint" (next c) })
  | 'C' -> Ok (Cancel { fingerprint = rest_of_line "fingerprint" (next c) })
  | 'h' -> (
      let fingerprint = rest_of_line "fingerprint" (next c) in
      match fields (next c) with
      | [ s; e; d ] ->
          Ok
            (Job_heartbeat
               {
                 fingerprint;
                 shard = int_of "shard" s;
                 epoch = int_of "epoch" e;
                 samples_done = int_of "samples_done" d;
               })
      | _ -> bad "malformed job heartbeat")
  | 'j' -> (
      let fingerprint = rest_of_line "fingerprint" (next c) in
      match fields (next c) with
      | [ "shard"; s; "epoch"; e ] -> (
          match expect_kw "tally" (next c) with
          | [ n ] ->
              let tally = restore_blob (take c (int_of "tally line count" n)) in
              let quarantined = read_quarantined c in
              Ok
                (Job_done
                   {
                     fingerprint;
                     shard = int_of "shard" s;
                     epoch = int_of "epoch" e;
                     tally;
                     quarantined;
                   })
          | _ -> bad "malformed tally line")
      | _ -> bad "malformed job_done header")
  | t -> bad "unknown client tag %C" t

let decode_client_ext tag payload =
  let c = { rest = lines_of payload } in
  match decode_client_raising c tag with
  | Ok msg ->
      let ext =
        match msg with
        | Shard_done _ | Job_done _ ->
            (* Section order is fixed: digest, then telemetry. *)
            let digest = read_ext_digest c in
            { no_extension with ext_digest = digest; ext_telemetry = read_ext_telemetry c }
        | Heartbeat _ | Job_heartbeat _ ->
            { no_extension with ext_telemetry = read_ext_telemetry c }
        | _ -> no_extension
      in
      Ok (msg, ext)
  | Error msg -> Error msg
  | exception Bad msg -> Error msg

let decode_client tag payload = Result.map fst (decode_client_ext tag payload)

(* -- server messages ---------------------------------------------------- *)

let encode_server = function
  | Welcome { version } -> ('W', Printf.sprintf "version %d\n" version)
  | Assign { shard; epoch; start; len } ->
      ('A', Printf.sprintf "%d %d %d %d\n" shard epoch start len)
  | No_work { finished } -> ('N', if finished then "finished\n" else "wait\n")
  | Ack { accepted; reason } ->
      ('K', Printf.sprintf "%s %s\n" (if accepted then "ok" else "no") (one_line reason))
  | Report { shards; quarantined; elapsed_s } ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf (Printf.sprintf "elapsed %h\n" elapsed_s);
      Buffer.add_string buf (Printf.sprintf "shards %d\n" (List.length shards));
      List.iter (fun (i, blob) -> emit_blob buf (Printf.sprintf "shard %d" i) blob) shards;
      emit_quarantined buf quarantined;
      ('P', Buffer.contents buf)
  | Reject { reason } -> ('X', one_line reason ^ "\n")
  | Retry_later { cooldown_s } -> ('L', Printf.sprintf "%h\n" cooldown_s)
  | Job { spec; shard; epoch; start; len } ->
      ('J', Printf.sprintf "spec %s\n%d %d %d %d\n" (spec_line spec) shard epoch start len)
  | Submitted { fingerprint; position; cached } ->
      ( 'U',
        Printf.sprintf "fingerprint %s\nposition %d cached %s\n" (one_line fingerprint) position
          (if cached then "yes" else "no") )
  | Sched_rejected { retry_after_s; reason } ->
      ('E', Printf.sprintf "%h %s\n" retry_after_s (one_line reason))
  | Status { entries } ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf (Printf.sprintf "entries %d\n" (List.length entries));
      List.iter
        (fun e ->
          Buffer.add_string buf (Printf.sprintf "fingerprint %s\n" (one_line e.st_fingerprint));
          Buffer.add_string buf
            (Printf.sprintf "state %s position %d queue %d done %d total %d rate %h eta %h\n"
               (state_token e.st_state) e.st_position e.st_queue_len e.st_samples_done
               e.st_samples_total e.st_rate e.st_eta_s);
          Buffer.add_string buf (Printf.sprintf "detail %s\n" (one_line e.st_detail)))
        entries;
      ('T', Buffer.contents buf)

let encode_server_ext ?(ext = no_extension) msg =
  let tag, payload = encode_server msg in
  match msg with
  | (Assign _ | Job _) when ext.ext_trace <> None ->
      let buf = Buffer.create (String.length payload + 64) in
      Buffer.add_string buf payload;
      emit_ext_trace buf ext.ext_trace;
      (tag, Buffer.contents buf)
  | _ -> (tag, payload)

let decode_server_raising c tag =
  match tag with
  | 'W' -> (
      match expect_kw "version" (next c) with
      | [ v ] -> Ok (Welcome { version = int_of "version" v })
      | _ -> bad "malformed version line")
  | 'A' -> (
      match fields (next c) with
      | [ s; e; st; l ] ->
          Ok
            (Assign
               {
                 shard = int_of "shard" s;
                 epoch = int_of "epoch" e;
                 start = int_of "start" st;
                 len = int_of "len" l;
               })
      | _ -> bad "malformed assign")
  | 'N' -> (
      match next c with
      | "finished" -> Ok (No_work { finished = true })
      | "wait" -> Ok (No_work { finished = false })
      | l -> bad "malformed no_work %S" l)
  | 'K' -> (
      match fields (next c) with
      | verdict :: reason ->
          Ok (Ack { accepted = verdict = "ok"; reason = String.concat " " reason })
      | [] -> bad "malformed ack")
  | 'P' -> (
      match expect_kw "elapsed" (next c) with
      | [ e ] -> (
          let elapsed_s = float_of "elapsed" e in
          match expect_kw "shards" (next c) with
          | [ n ] ->
              let shards =
                List.init (int_of "shard count" n) (fun _ ->
                    match fields (next c) with
                    | [ "shard"; i; lines ] ->
                        ( int_of "shard id" i,
                          restore_blob (take c (int_of "shard line count" lines)) )
                    | _ -> bad "malformed shard header")
              in
              let quarantined = read_quarantined c in
              Ok (Report { shards; quarantined; elapsed_s })
          | _ -> bad "malformed shards line")
      | _ -> bad "malformed elapsed line")
  | 'X' -> Ok (Reject { reason = String.concat " " (fields (next c)) })
  | 'L' -> Ok (Retry_later { cooldown_s = float_of "cooldown" (next c) })
  | 'J' -> (
      match spec_of_line (rest_of_line "spec" (next c)) with
      | Error msg -> bad "%s" msg
      | Ok spec -> (
          match fields (next c) with
          | [ s; e; st; l ] ->
              Ok
                (Job
                   {
                     spec;
                     shard = int_of "shard" s;
                     epoch = int_of "epoch" e;
                     start = int_of "start" st;
                     len = int_of "len" l;
                   })
          | _ -> bad "malformed job assignment"))
  | 'U' -> (
      let fingerprint = rest_of_line "fingerprint" (next c) in
      match fields (next c) with
      | [ "position"; p; "cached"; cd ] ->
          Ok
            (Submitted
               {
                 fingerprint;
                 position = int_of "position" p;
                 cached =
                   (match cd with
                   | "yes" -> true
                   | "no" -> false
                   | w -> bad "bad cached flag %S" w);
               })
      | _ -> bad "malformed submitted line")
  | 'E' -> (
      match fields (next c) with
      | retry :: reason ->
          Ok
            (Sched_rejected
               { retry_after_s = float_of "retry_after" retry; reason = String.concat " " reason })
      | [] -> bad "malformed sched_rejected")
  | 'T' -> (
      match expect_kw "entries" (next c) with
      | [ n ] ->
          let entries =
            List.init (int_of "entry count" n) (fun _ ->
                let st_fingerprint = rest_of_line "fingerprint" (next c) in
                match fields (next c) with
                | [ "state"; tok; "position"; p; "queue"; q; "done"; d; "total"; t; "rate"; r;
                    "eta"; eta ] ->
                    let st_state =
                      match state_of_token tok with
                      | Some s -> s
                      | None -> bad "unknown campaign state %S" tok
                    in
                    {
                      st_fingerprint;
                      st_state;
                      st_position = int_of "position" p;
                      st_queue_len = int_of "queue" q;
                      st_samples_done = int_of "done" d;
                      st_samples_total = int_of "total" t;
                      st_rate = float_of "rate" r;
                      st_eta_s = float_of "eta" eta;
                      st_detail = rest_of_line "detail" (next c);
                    }
                | _ -> bad "malformed status entry")
          in
          Ok (Status { entries })
      | _ -> bad "malformed entries line")
  | t -> bad "unknown server tag %C" t

let decode_server_ext tag payload =
  let c = { rest = lines_of payload } in
  match decode_server_raising c tag with
  | Ok msg ->
      let ext =
        match msg with
        | Assign _ | Job _ -> { no_extension with ext_trace = read_ext_trace c }
        | _ -> no_extension
      in
      Ok (msg, ext)
  | Error msg -> Error msg
  | exception Bad msg -> Error msg

let decode_server tag payload = Result.map fst (decode_server_ext tag payload)
