(* The distributed campaign worker ([faultmc worker]): connect, lease
   shards, run them on the local engine, stream results back.

   Heartbeats ride the run_shard on_sample hook (every heartbeat_every
   samples), synchronously over the protocol connection; a negative ack
   means the service expired our lease, so the shard is abandoned
   mid-run by raising Lease_lost out of the hook — run_shard invokes the
   hook outside its crash guard precisely so this aborts the shard
   instead of quarantining a sample. The abandoned work is harmless: the
   re-issued lease re-runs the shard from its substream and produces the
   bit-identical snapshot.

   Reconnect state machine (DESIGN.md §11): a session is one
   connect/handshake/lease loop. Any transport-level failure mid-session
   (peer gone, corrupt stream, socket deadline, mid-session reject,
   Retry_later parking) abandons the in-flight shard and re-enters
   connecting with exponential backoff and decorrelated jitter — the
   sleep is drawn from the worker's own RNG substream, so a given
   (seed, worker name) retries on a replayable schedule. Epoch fencing
   on the service makes the abandon/retry loop safe: whichever lease
   epoch completes first wins, every other completion is fenced. Only a
   handshake Reject (version/fingerprint mismatch, quarantine) is
   terminal. *)

open Fmc
open Fmc_prelude
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics
module Clock = Fmc_obs.Clock
module Span = Fmc_obs.Span
module Telemetry = Fmc_obs.Telemetry

exception Lease_lost
exception Rejected of string

(* Internal: mid-session protocol trouble that should tear the session
   down and reconnect rather than kill the worker. *)
exception Session_error of string

(* Internal: the service parked us (circuit breaker open); reconnect
   no earlier than the given cooldown. *)
exception Parked of float

type retry = {
  base_s : float;
  cap_s : float;
  max_attempts : int;
  budget_s : float;
}

let default_retry = { base_s = 0.2; cap_s = 10.; max_attempts = 10; budget_s = 300. }

type config = {
  addr : Wire.addr;
  worker_name : string;
  heartbeat_every : int;  (* samples between heartbeats; 0 disables *)
  retry_delay_s : float;  (* poll delay when every shard is leased out *)
  connect_attempts : int;  (* TCP connect retries within one session attempt *)
  io_deadline_s : float;  (* socket read/write deadline *)
  retry : retry;  (* reconnect state-machine tuning *)
}

let default_config ~addr ~worker_name =
  {
    addr;
    worker_name;
    heartbeat_every = 100;
    retry_delay_s = 0.5;
    connect_attempts = 20;
    io_deadline_s = 120.;
    retry = default_retry;
  }

type mx = {
  reconnects : Metrics.counter option;
  backoff : Metrics.histogram option;
}

let mx_create (obs : Obs.t) =
  match obs.Obs.metrics with
  | None -> { reconnects = None; backoff = None }
  | Some r ->
      {
        reconnects =
          Some
            (Metrics.counter r ~help:"session teardowns that re-entered connecting"
               "fmc_dist_reconnects_total");
        backoff =
          Some
            (Metrics.histogram r ~help:"reconnect backoff sleeps"
               ~buckets:[| 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10.; 30. |]
               "fmc_dist_reconnect_backoff_seconds");
      }

let protocol_error what = raise (Session_error ("unexpected reply to " ^ what))

let wire_conn (obs : Obs.t) ~deadline_s fd =
  match obs.Obs.metrics with
  | None -> Wire.conn ~deadline_s fd
  | Some r ->
      let sent = Metrics.counter r ~help:"protocol bytes sent" "fmc_dist_bytes_sent_total" in
      let received =
        Metrics.counter r ~help:"protocol bytes received" "fmc_dist_bytes_received_total"
      in
      Wire.conn ~deadline_s fd
        ~on_sent:(fun n -> Metrics.add sent (float_of_int n))
        ~on_recv:(fun n -> Metrics.add received (float_of_int n))

let send ?ext conn msg =
  let tag, payload = Protocol.encode_client_ext ?ext msg in
  Wire.write_frame conn ~tag payload

let recv_ext conn what =
  let tag, payload = Wire.read_frame conn in
  match Protocol.decode_server_ext tag payload with
  | Ok (Protocol.Retry_later { cooldown_s }, _) -> raise (Parked cooldown_s)
  | Ok pair -> pair
  | Error msg -> raise (Session_error (msg ^ " (reply to " ^ what ^ ")"))

let recv conn what = fst (recv_ext conn what)

(* A handshake Reject is terminal (wrong version, unknown campaign or a
   quarantined worker — no amount of retrying fixes that); any Reject
   after the Welcome is a session-level complaint and goes through the
   reconnect machinery. *)
let handshake conn ~worker ~fingerprint =
  send conn (Protocol.Hello { version = Protocol.version; worker; fingerprint });
  match recv conn "hello" with
  | Protocol.Welcome _ -> ()
  | Protocol.Reject { reason } -> raise (Rejected reason)
  | _ -> protocol_error "hello"

let connect ?(obs = Obs.disabled) config ~fingerprint =
  let fd =
    Wire.connect ~attempts:config.connect_attempts ~delay_s:config.retry_delay_s config.addr
  in
  let conn = wire_conn obs ~deadline_s:config.io_deadline_s fd in
  match handshake conn ~worker:config.worker_name ~fingerprint with
  | () -> conn
  | exception e ->
      Wire.close conn;
      raise e

(* The telemetry piggyback: the worker's full registry snapshot
   (cumulative — the receiver replaces its previous copy rather than
   adding) plus any newly completed shard span. Built fresh per message;
   consumes no RNG and never touches sampling state, so attaching it
   cannot perturb the campaign. [sent] is when the worker last attached
   one. *)
let telemetry_ext (obs : Obs.t) ~sent ~trace_id ~spans =
  let metrics =
    match obs.Obs.metrics with Some r -> Metrics.snapshot r | None -> []
  in
  sent := Clock.now ();
  {
    Protocol.no_extension with
    Protocol.ext_telemetry =
      Some (Telemetry.encode (Telemetry.make ~trace_id ~metrics ~spans ()));
  }

(* A heartbeat carries the snapshot only if the worker has sent none for
   this long: a heartbeat goes out every [heartbeat_every] samples, and
   one that carries the snapshot takes several times as long to build,
   send and absorb as one that does not. A shard's result always carries
   it. *)
let heartbeat_telemetry_s = 1.0

let shard_span (obs : Obs.t) ~span_id ~shard ~t0 =
  {
    Telemetry.ss_span_id = span_id;
    ss_event =
      {
        Span.ev_name = Printf.sprintf "shard-%d" shard;
        ev_cat = "dist";
        ev_tid = (match obs.Obs.tracer with Some tr -> Span.tid tr | None -> 0);
        ev_ts_us = t0;
        ev_dur_us = Clock.now_us () -. t0;
      };
  }

(* -- the reconnect state machine ---------------------------------------- *)

let transient_reason = function
  | Wire.Closed -> Some "connection closed"
  | Wire.Timeout -> Some "socket deadline"
  | Wire.Protocol_error msg -> Some msg
  | Session_error msg -> Some msg
  | Parked cooldown_s -> Some (Printf.sprintf "parked for %.1fs by the service" cooldown_s)
  | Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
  | Sys_error msg -> Some msg
  | _ -> None

(* Decorrelated jitter (base grows multiplicatively but each sleep is a
   fresh uniform draw in [base, prev * 3]), capped per-sleep. *)
let next_backoff rng retry ~prev =
  let hi = Float.max (retry.base_s *. 1.5) (prev *. 3.) in
  Float.min retry.cap_s (retry.base_s +. Rng.float rng (hi -. retry.base_s))

(* Drive [session] to completion through the reconnect state machine:
   any transient failure sleeps a decorrelated-jitter backoff and
   retries; [progress] is sampled around each session so a session that
   accomplished something resets the consecutive-attempt counter (the
   total sleep budget never resets). *)
let with_reconnects ~obs ~mx ~rng ~retry ~on_reconnect ~progress session =
  let attempt = ref 0 in
  let slept = ref 0. in
  let prev = ref retry.base_s in
  let finished = ref false in
  while not !finished do
    let before = progress () in
    match session () with
    | () -> finished := true
    | exception e -> (
        match transient_reason e with
        | None -> raise e
        | Some reason ->
            (* A session that completed at least one shard was real
               progress: the consecutive-attempt count restarts (the
               total sleep budget never does, so a terminally flapping
               link still terminates). *)
            if progress () > before then attempt := 1 else incr attempt;
            if !attempt > retry.max_attempts then
              failwith
                (Printf.sprintf "giving up after %d reconnect attempts (last: %s)"
                   retry.max_attempts reason);
            let sleep_s = next_backoff rng retry ~prev:!prev in
            (* A Parked cooldown is a floor, not a suggestion: coming
               back early just burns another breaker probe. *)
            let sleep_s =
              match e with Parked cooldown_s -> Float.max sleep_s cooldown_s | _ -> sleep_s
            in
            if !slept +. sleep_s > retry.budget_s then
              failwith
                (Printf.sprintf "reconnect budget (%.1fs) exhausted after %d attempts (last: %s)"
                   retry.budget_s !attempt reason);
            prev := sleep_s;
            slept := !slept +. sleep_s;
            Option.iter Metrics.inc mx.reconnects;
            Option.iter (fun h -> Metrics.observe h sleep_s) mx.backoff;
            on_reconnect ~attempt:!attempt ~sleep_s ~reason;
            Obs.span obs ~cat:"dist" "reconnect-backoff" (fun () -> Unix.sleepf sleep_s))
  done

(* One leased shard: run it under its campaign's toolchain with a
   heartbeat every [heartbeat_every] samples, where a refused heartbeat
   abandons the shard, then send the result, counting it in [completed]
   once accepted. *)
let work_job (obs : Obs.t) ?causal config conn ~sent ~completed ~toolchain
    (spec : Protocol.spec) ~shard ~epoch ~start ~len (jext : Protocol.extension) =
  let engine, prepared, inject = toolchain spec in
  let fingerprint = Protocol.spec_fingerprint spec in
  let trace_id, span_id = Option.value jext.Protocol.ext_trace ~default:("", "") in
  let on_sample i =
    if config.heartbeat_every > 0 && i mod config.heartbeat_every = 0 then begin
      let ext =
        if Clock.now () -. !sent >= heartbeat_telemetry_s then
          Some (telemetry_ext obs ~sent ~trace_id ~spans:[])
        else None
      in
      send ?ext conn (Protocol.Job_heartbeat { fingerprint; shard; epoch; samples_done = i });
      match recv conn "job_heartbeat" with
      | Protocol.Ack { accepted = true; _ } -> ()
      | Protocol.Ack { accepted = false; _ } -> raise Lease_lost
      | _ -> protocol_error "job_heartbeat"
    end
  in
  let t0 = Clock.now_us () in
  match
    Campaign.run_shard ~obs ?causal ?sample_budget:spec.Protocol.sp_sample_budget ~inject
      ~on_sample engine prepared ~seed:spec.Protocol.sp_seed ~shard ~start ~len
  with
  | sh -> (
      let tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
      let quarantined = sh.Campaign.sh_quarantined in
      (* The digest lets the server verify the payload survived the trip
         (and is the audit comparison key). *)
      let ext =
        {
          (telemetry_ext obs ~sent ~trace_id ~spans:[ shard_span obs ~span_id ~shard ~t0 ]) with
          Protocol.ext_digest = Some (Fmc_audit.Audit.Check.result_digest ~tally ~quarantined);
        }
      in
      send ~ext conn (Protocol.Job_done { fingerprint; shard; epoch; tally; quarantined });
      match recv conn "job_done" with
      | Protocol.Ack { accepted; _ } -> if accepted then incr completed
      | _ -> protocol_error "job_done")
  | exception Lease_lost -> ()

let run ?(obs = Obs.disabled) ?causal
    ?(on_reconnect = fun ~attempt:_ ~sleep_s:_ ~reason:_ -> ()) config ~scope ~resolve =
  (* Engines are expensive to elaborate: resolve each campaign's
     toolchain on its first job and reuse it for every later one. *)
  let resolved = Hashtbl.create 8 in
  let toolchain spec =
    let fp = Protocol.spec_fingerprint spec in
    match Hashtbl.find_opt resolved fp with
    | Some tc -> tc
    | None -> (
        match resolve spec with
        | Ok tc ->
            Hashtbl.replace resolved fp tc;
            tc
        | Error reason ->
            (* We cannot build this campaign (unknown benchmark or
               strategy on this host). Tear the session down: the
               abandoned lease expires to another worker, and if every
               session hits the same wall the reconnect budget turns the
               misconfiguration into a clear terminal failure. *)
            raise (Session_error ("cannot build campaign: " ^ reason)))
  in
  (* The backoff schedule is drawn from a substream keyed by the scope
     and the worker name, so a (scope, name) pair retries on a
     replayable schedule under the chaos harness. *)
  let rng =
    Rng.substream
      ~seed:(Int64.of_int (Crc32.string scope))
      ~shard:(Hashtbl.hash config.worker_name land 0x3FFFFFFF)
  in
  let mx = mx_create obs in
  let completed = ref 0 in
  let sent = ref Float.neg_infinity in
  let session () =
    let conn = connect ~obs config ~fingerprint:scope in
    let rec loop () =
      send conn Protocol.Request_shard;
      match recv_ext conn "request_shard" with
      | Protocol.No_work { finished = true }, _ -> (
          try send conn Protocol.Goodbye
          with Wire.Closed | Wire.Timeout | Unix.Unix_error _ -> ())
      | Protocol.No_work { finished = false }, _ ->
          Unix.sleepf config.retry_delay_s;
          loop ()
      | Protocol.Job { spec; shard; epoch; start; len }, jext ->
          work_job obs ?causal config conn ~sent ~completed ~toolchain spec ~shard ~epoch ~start
            ~len jext;
          loop ()
      | Protocol.Reject { reason }, _ -> raise (Session_error ("rejected: " ^ reason))
      | _ -> protocol_error "request_shard"
    in
    Fun.protect ~finally:(fun () -> Wire.close conn) loop
  in
  with_reconnects ~obs ~mx ~rng ~retry:config.retry ~on_reconnect
    ~progress:(fun () -> !completed)
    session;
  !completed

(* -- report fetching ----------------------------------------------------- *)

type fetch_error =
  | Fetch_timeout of float
  | Fetch_rejected of string
  | Fetch_unreachable of string
  | Fetch_protocol of string

let fetch_error_message = function
  | Fetch_timeout waited ->
      Printf.sprintf "timed out after %.1fs waiting for the campaign to finish" waited
  | Fetch_rejected reason -> "rejected by the service: " ^ reason
  | Fetch_unreachable reason -> "cannot reach the service: " ^ reason
  | Fetch_protocol reason -> "protocol error: " ^ reason

(* One session outside the reconnect state machine — a report fetch or
   a control request, run by humans and scripts: [f] talks over the
   connection, and every transport or protocol failure comes back as a
   typed [fetch_error], never raised. *)
let one_session ~obs config ~fingerprint f =
  let started = Clock.now () in
  match
    let conn = connect ~obs config ~fingerprint in
    Fun.protect
      ~finally:(fun () -> Wire.close conn)
      (fun () ->
        let result = f conn ~started in
        (try send conn Protocol.Goodbye with Wire.Closed | Unix.Unix_error _ -> ());
        result)
  with
  | result -> result
  | exception Rejected reason -> Error (Fetch_rejected reason)
  | exception Parked cooldown_s ->
      Error (Fetch_rejected (Printf.sprintf "parked for %.1fs (circuit open)" cooldown_s))
  | exception Unix.Unix_error (e, _, _) -> Error (Fetch_unreachable (Unix.error_message e))
  | exception Failure msg -> Error (Fetch_unreachable msg)
  | exception Wire.Closed -> Error (Fetch_unreachable "the service closed the connection")
  | exception Wire.Timeout -> Error (Fetch_timeout (Clock.now () -. started))
  | exception (Wire.Protocol_error msg | Session_error msg) -> Error (Fetch_protocol msg)

let fetch_report ?(obs = Obs.disabled) ?(poll_s = 0.25) ?(poll_cap_s = 2.) ?(timeout_s = 600.)
    ?on_pending config ~fingerprint =
  one_session ~obs config ~fingerprint (fun conn ~started ->
      (* The poll interval backs off geometrically to its cap: quick
         answers stay quick, long campaigns do not get hammered. *)
      let rec poll interval =
        send conn Protocol.Fetch_report;
        match recv conn "fetch_report" with
        | Protocol.Report { shards; quarantined; elapsed_s } -> Ok (shards, quarantined, elapsed_s)
        (* A pending fetch is answered with the campaign's queue entry,
           so the waiting client can show position and ETA. *)
        | Protocol.Status { entries = { Protocol.st_state = Protocol.Cancelled; _ } :: _ } ->
            Error (Fetch_rejected "campaign was cancelled")
        | Protocol.Status { entries = entry :: _ } ->
            Option.iter (fun f -> f entry) on_pending;
            let waited = Clock.now () -. started in
            if waited > timeout_s then Error (Fetch_timeout waited)
            else begin
              Unix.sleepf interval;
              poll (Float.min poll_cap_s (interval *. 1.5))
            end
        | Protocol.Status { entries = [] } -> Error (Fetch_rejected "unknown campaign")
        | Protocol.Reject { reason } -> Error (Fetch_rejected reason)
        | _ -> Error (Fetch_protocol "unexpected reply to fetch_report")
      in
      poll poll_s)

(* -- scheduler control clients ------------------------------------------- *)

type submit_reply =
  | Submit_queued of int
  | Submit_cached
  | Submit_rejected of { retry_after_s : float; reason : string }

(* One-shot request/reply on a pool-scoped connection. *)
let control ?(obs = Obs.disabled) config msg ~what ~reply =
  one_session ~obs config ~fingerprint:Protocol.pool_fingerprint (fun conn ~started:_ ->
      send conn msg;
      Ok (reply (recv conn what)))
  |> Result.map_error fetch_error_message
  |> Result.join

let submit ?obs config spec =
  control ?obs config (Protocol.Submit { spec }) ~what:"submit" ~reply:(function
    | Protocol.Submitted { cached = true; _ } -> Ok Submit_cached
    | Protocol.Submitted { position; _ } -> Ok (Submit_queued position)
    | Protocol.Sched_rejected { retry_after_s; reason } ->
        Ok (Submit_rejected { retry_after_s; reason })
    | Protocol.Reject { reason } -> Error reason
    | _ -> Error "unexpected reply to submit")

let sched_status ?obs config ~fingerprint =
  control ?obs config
    (Protocol.Status_req { fingerprint })
    ~what:"status" ~reply:(function
    | Protocol.Status { entries } -> Ok entries
    | Protocol.Reject { reason } -> Error reason
    | _ -> Error "unexpected reply to status")

let cancel ?obs config ~fingerprint =
  control ?obs config
    (Protocol.Cancel { fingerprint })
    ~what:"cancel" ~reply:(function
    | Protocol.Ack { accepted; reason } -> Ok (accepted, reason)
    | Protocol.Reject { reason } -> Error reason
    | _ -> Error "unexpected reply to cancel")
