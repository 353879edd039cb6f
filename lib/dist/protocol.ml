(* Message layer of the campaign service protocol: typed messages and
   their (tag, payload) encoding over Wire frames.

   Payloads are line-oriented text, reusing the repo's serializers where
   state crosses the wire: tally snapshots travel as verbatim
   Ssf.Tally.to_string blobs (line-counted so they embed safely) and
   quarantine entries as Campaign.quarantine_entry_to_string lines — the
   same codecs the durable checkpoints use, so a snapshot is bit-exact no
   matter how many process boundaries it crossed. *)

open Fmc
module Record = Fmc_prelude.Record

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
   v6: one lease conversation — every Request_shard is answered with a
   Job, and every lease heartbeats with Job_heartbeat and completes with
   Job_done, whatever the connection's scope. Assign is gone; Heartbeat
   and Shard_done remain codec entries only, and the service answers
   them with Reject.
   Every peer is built from this tree, so a server admits exactly this
   version and answers any other Hello with a terminal Reject. *)
let version = 6

(* The campaign fingerprint hashes only things that change per-sample
   outcomes; v4 to v6 added no such thing, so the embedded version
   stays 3. *)
let fingerprint_version = 3

let accepts_version v = v = version

(* The full identity of a campaign: every parameter that must agree
   between the submitting client and the evaluating worker for the shard
   results to be meaningful. This is what a Submit enqueues and a Job
   hands to a worker. *)
type spec = {
  sp_benchmark : string;
  sp_strategy : string;
  sp_samples : int;
  sp_seed : int;
  sp_shard_size : int;
  sp_sample_budget : int option;
  sp_fault_model : string;  (* canonical fault-model string *)
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
  match String.split_on_char ' ' line with
  | [ b; st; sa; se; sh; bu; m ] -> (
      let ( let* ) = Result.bind in
      match
        let* sp_benchmark = kv "benchmark" b in
        let* sp_strategy = kv "strategy" st in
        let* sa = kv "samples" sa in
        let* se = kv "seed" se in
        let* sh = kv "shard_size" sh in
        let* bu = kv "budget" bu in
        let* sp_fault_model = kv "model" m in
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
      | Error msg -> err msg)
  | _ -> err "wants 7 space-separated key=value fields"

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

(* Payload framing (cursor, counted sections, blobs) is Fmc_prelude.Record;
   a decode failure of any kind is an [Error], which the service charges
   to the sender. *)

let one_line = Record.one_line
let words c = String.split_on_char ' ' (Record.next c)

let quarantine_of_line line =
  match Campaign.quarantine_entry_of_string line with
  | Ok e -> e
  | Error msg -> Record.fail "quarantine entry: %s" msg

let add_quarantined buf entries =
  Record.add_section buf "quarantined" (List.map Campaign.quarantine_entry_to_string entries)

let read_quarantined c = Record.section c "quarantined" quarantine_of_line

(* -- extension sections ---------------------------------------------------- *)

(* The v4/v5 additions ride as trailing sections after a message's base
   payload, carried out-of-band of the message variants so the base
   constructors stay small. *)
type extension = {
  ext_trace : (string * string) option;
      (* (trace_id, span_id) stamped on Job *)
  ext_telemetry : string option;
      (* encoded Fmc_obs.Telemetry blob on Heartbeat/Shard_done/
         Job_heartbeat/Job_done; opaque at this layer *)
  ext_digest : string option;
      (* v5: canonical result digest on Shard_done/Job_done; opaque
         here (Fmc_audit computes and compares it) *)
}

let no_extension = { ext_trace = None; ext_telemetry = None; ext_digest = None }

let read_ext_trace c =
  if not (Record.peek_is c "trace") then None
  else
    match Record.fields c "trace" with
    | [ t; s ] -> Some (t, s)
    | _ -> Record.fail "malformed trace line"

let read_ext_telemetry c =
  if not (Record.peek_is c "telemetry") then None
  else Some (Record.blob c (Record.count c "telemetry"))

let read_ext_digest c =
  if not (Record.peek_is c "digest") then None
  else Some (Record.field c "digest")

let emit_ext_trace buf = function
  | None -> ()
  | Some (t, s) ->
      Buffer.add_string buf (Printf.sprintf "trace %s %s\n" (one_line t) (one_line s))

let emit_ext_telemetry buf = function
  | None -> ()
  | Some blob -> Record.add_blob buf "telemetry" blob

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
      Record.add_blob buf "tally" tally;
      add_quarantined buf quarantined;
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
      Record.add_blob buf "tally" tally;
      add_quarantined buf quarantined;
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

let spec_of c =
  match spec_of_line (Record.rest c "spec") with
  | Ok spec -> spec
  | Error msg -> Record.fail "%s" msg

(* "shard <i> epoch <e>", the tally blob, the quarantine log. *)
let read_result c =
  match words c with
  | [ "shard"; s; "epoch"; e ] ->
      let shard = Record.int_of "shard" s and epoch = Record.int_of "epoch" e in
      let tally = Record.blob c (Record.count c "tally") in
      (shard, epoch, tally, read_quarantined c)
  | _ -> Record.fail "malformed shard_done header"

let read_progress c =
  match words c with
  | [ s; e; d ] -> Record.(int_of "shard" s, int_of "epoch" e, int_of "samples_done" d)
  | _ -> Record.fail "malformed heartbeat"

let decode_client_msg c = function
  | 'H' ->
      let version = Record.int_of "version" (Record.field c "version") in
      let worker = Record.rest c "worker" in
      let fingerprint = Record.rest c "fingerprint" in
      Hello { version; worker; fingerprint }
  | 'R' -> Request_shard
  | 'B' ->
      let shard, epoch, samples_done = read_progress c in
      Heartbeat { shard; epoch; samples_done }
  | 'D' ->
      let shard, epoch, tally, quarantined = read_result c in
      Shard_done { shard; epoch; tally; quarantined }
  | 'F' -> Fetch_report
  | 'G' -> Goodbye
  | 'S' -> Submit { spec = spec_of c }
  | 'Q' -> Status_req { fingerprint = Record.rest c "fingerprint" }
  | 'C' -> Cancel { fingerprint = Record.rest c "fingerprint" }
  | 'h' ->
      let fingerprint = Record.rest c "fingerprint" in
      let shard, epoch, samples_done = read_progress c in
      Job_heartbeat { fingerprint; shard; epoch; samples_done }
  | 'j' ->
      let fingerprint = Record.rest c "fingerprint" in
      let shard, epoch, tally, quarantined = read_result c in
      Job_done { fingerprint; shard; epoch; tally; quarantined }
  | t -> Record.fail "unknown client tag %C" t

let decode_client_ext tag =
  Record.parse (fun c ->
      let msg = decode_client_msg c tag in
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
      (msg, ext))

let decode_client tag payload = Result.map fst (decode_client_ext tag payload)

(* -- server messages ---------------------------------------------------- *)

let encode_server = function
  | Welcome { version } -> ('W', Printf.sprintf "version %d\n" version)
  | No_work { finished } -> ('N', if finished then "finished\n" else "wait\n")
  | Ack { accepted; reason } ->
      ('K', Printf.sprintf "%s %s\n" (if accepted then "ok" else "no") (one_line reason))
  | Report { shards; quarantined; elapsed_s } ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf (Printf.sprintf "elapsed %h\n" elapsed_s);
      Buffer.add_string buf (Printf.sprintf "shards %d\n" (List.length shards));
      List.iter (fun (i, blob) -> Record.add_blob buf (Printf.sprintf "shard %d" i) blob) shards;
      add_quarantined buf quarantined;
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
  | Job _ when ext.ext_trace <> None ->
      let buf = Buffer.create (String.length payload + 64) in
      Buffer.add_string buf payload;
      emit_ext_trace buf ext.ext_trace;
      (tag, Buffer.contents buf)
  | _ -> (tag, payload)

let read_lease c =
  match words c with
  | [ s; e; st; l ] ->
      Record.(int_of "shard" s, int_of "epoch" e, int_of "start" st, int_of "len" l)
  | _ -> Record.fail "malformed assignment"

let read_status_entry c =
  let st_fingerprint = Record.rest c "fingerprint" in
  match words c with
  | [ "state"; tok; "position"; p; "queue"; q; "done"; d; "total"; t; "rate"; r; "eta"; eta ] ->
      let st_state =
        match state_of_token tok with
        | Some s -> s
        | None -> Record.fail "unknown campaign state %S" tok
      in
      {
        st_fingerprint;
        st_state;
        st_position = Record.int_of "position" p;
        st_queue_len = Record.int_of "queue" q;
        st_samples_done = Record.int_of "done" d;
        st_samples_total = Record.int_of "total" t;
        st_rate = Record.float_of "rate" r;
        st_eta_s = Record.float_of "eta" eta;
        st_detail = Record.rest c "detail";
      }
  | _ -> Record.fail "malformed status entry"

let decode_server_msg c = function
  | 'W' -> Welcome { version = Record.int_of "version" (Record.field c "version") }
  | 'N' -> (
      match Record.next c with
      | "finished" -> No_work { finished = true }
      | "wait" -> No_work { finished = false }
      | l -> Record.fail "malformed no_work %S" l)
  | 'K' -> (
      match words c with
      | verdict :: reason -> Ack { accepted = verdict = "ok"; reason = String.concat " " reason }
      | [] -> Record.fail "malformed ack")
  | 'P' ->
      let elapsed_s = Record.float_of "elapsed" (Record.field c "elapsed") in
      let shards =
        Record.take (Record.count c "shards") (fun () ->
            match words c with
            | [ "shard"; i; n ] ->
                (Record.int_of "shard id" i, Record.blob c (Record.int_of "shard line count" n))
            | _ -> Record.fail "malformed shard header")
      in
      Report { shards; quarantined = read_quarantined c; elapsed_s }
  | 'X' -> Reject { reason = Record.next c }
  | 'L' -> Retry_later { cooldown_s = Record.float_of "cooldown" (Record.next c) }
  | 'J' ->
      let spec = spec_of c in
      let shard, epoch, start, len = read_lease c in
      Job { spec; shard; epoch; start; len }
  | 'U' -> (
      let fingerprint = Record.rest c "fingerprint" in
      match words c with
      | [ "position"; p; "cached"; cd ] ->
          let cached =
            match cd with "yes" -> true | "no" -> false | w -> Record.fail "bad cached flag %S" w
          in
          Submitted { fingerprint; position = Record.int_of "position" p; cached }
      | _ -> Record.fail "malformed submitted line")
  | 'E' -> (
      match words c with
      | retry :: reason ->
          Sched_rejected
            {
              retry_after_s = Record.float_of "retry_after" retry;
              reason = String.concat " " reason;
            }
      | [] -> Record.fail "malformed sched_rejected")
  | 'T' ->
      Status { entries = Record.take (Record.count c "entries") (fun () -> read_status_entry c) }
  | t -> Record.fail "unknown server tag %C" t

let decode_server_ext tag =
  Record.parse (fun c ->
      let msg = decode_server_msg c tag in
      let ext =
        match msg with
        | Job _ -> { no_extension with ext_trace = read_ext_trace c }
        | _ -> no_extension
      in
      (msg, ext))

let decode_server tag payload = Result.map fst (decode_server_ext tag payload)
