(* The campaign service ([faultmc sched], and [faultmc serve] holding one
   pinned campaign): accept loop, per-connection threads, and the
   mapping between Protocol messages and Sched operations. A select tick
   plus one thread per connection, every Sched call behind one mutex.

   Every connection carries a scope (its Hello fingerprint): pool
   workers and control clients announce Protocol.pool_fingerprint,
   while campaign-scoped connections ([faultmc worker], [evaluate
   --connect], [submit --wait]) name one campaign the service holds.
   The scope decides which campaigns a connection leases from, whether
   it may fetch a report, and what a drain tells it; the lease
   conversation itself is the same for every scope — Request_shard is
   answered with a Job, and Job_heartbeat/Job_done are routed by the
   fingerprint they carry. The same rules apply to every connection: a
   Hello naming an unknown campaign, an old protocol version or a
   quarantined worker is refused terminally; a worker whose circuit
   breaker is open is parked with Retry_later; a corrupt frame is
   charged to its sender's breaker; and below the require_workers floor
   leasing pauses. Only names that ask for shards count as workers
   there: report fetchers and control clients say Hello too, but never
   lease.

   Stopping: SIGTERM (or SIGINT, or a test's request_drain) sets the
   drain flag; the tick stops leasing, in-flight shards finish and are
   checkpointed, and once none remain the loop exits, compacts the queue
   log and returns. A worker of an unfinished campaign is told to wait
   through the drain, not to quit, and once the service has returned
   its connection is closed at its next request, as a process exit
   would, so it reconnects to the service that resumes the campaign. An
   idle service exits on its own after [max_idle_s].

   A pinned campaign ([faultmc serve]) is the only one the service
   holds: submitting another, or cancelling it, is refused. It adds the
   serve exit rule: once the campaign is finished, the service stops
   leasing and exits when [linger_s] has passed, no connection is open
   — every connection is bounded by [io_deadline_s], so a silent client
   cannot hold it forever — and no lessee is still owed its
   [No_work { finished = true }] (see [owed]). A drain likewise waits
   for the idle pool workers it owes that answer. *)

module Protocol = Fmc_dist.Protocol
module Wire = Fmc_dist.Wire
module Breaker = Fmc_dist.Breaker
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics
module Clock = Fmc_obs.Clock
module Span = Fmc_obs.Span
module Fleet = Fmc_obs.Fleet
module Telemetry = Fmc_obs.Telemetry
module Traceid = Fmc_obs.Traceid

type config = {
  addr : Wire.addr;
  state_dir : string option;  (* None: an ephemeral directory, removed on exit *)
  sched : Sched.config;
  require_workers : int;  (* pause leasing below this many healthy workers; 0 = off *)
  max_idle_s : float;  (* exit after this long idle; 0 = never *)
  io_deadline_s : float;
  handle_signals : bool;
}

let default_config addr =
  {
    addr;
    state_dir = None;
    sched = Sched.default_config;
    require_workers = 0;
    max_idle_s = 0.;
    io_deadline_s = 120.;
    handle_signals = false;
  }

type campaign = { spec : Protocol.spec; checkpoint : string option; linger_s : float }

type stop_reason = Drained | Idle | Finished

type outcome = {
  sv_reason : stop_reason;
  sv_report : ((int * string) list * Fmc.Campaign.quarantine_entry list * float) option;
}

type control = { request_drain : unit -> unit }

(* -- fleet view (scrape endpoint surface) -------------------------------- *)

type health = {
  h_draining : bool;
  h_finished : bool;
  h_queue_depth : int;
  h_shards_done : int;
  h_shards_total : int;
  h_in_flight : int;
  h_connected : int;
  h_healthy_workers : int;
  h_breakers_open : int;
  h_leasing_paused : bool;
  h_audits_pending : int;
  h_quarantined_workers : int;
  h_wal_torn : int;
}

type worker_view = {
  w_name : string;
  w_breaker : Breaker.state;
  w_connections : int;
  w_spans : int;
  w_last_wall : float;
  w_trace_id : string;
  w_quarantined : bool;
  w_mismatches : int;
}

type view = {
  vw_metrics : unit -> string;
  vw_health : unit -> health;
  vw_status : unit -> Protocol.status_entry list;
  vw_workers : unit -> worker_view list;
  vw_trace_json : unit -> string;
}

(* -- state --------------------------------------------------------------- *)

type mx = {
  bytes_sent : Metrics.counter option;
  bytes_received : Metrics.counter option;
  frames_corrupt : Metrics.counter option;
  connections : Metrics.gauge option;
  draining : Metrics.gauge option;
  leasing_paused : Metrics.gauge option;
}

let mx_create (obs : Obs.t) =
  let c help name = Option.map (fun r -> Metrics.counter r ~help name) obs.Obs.metrics in
  let g help name = Option.map (fun r -> Metrics.gauge r ~help name) obs.Obs.metrics in
  {
    bytes_sent = c "protocol bytes sent" "fmc_dist_bytes_sent_total";
    bytes_received = c "protocol bytes received" "fmc_dist_bytes_received_total";
    frames_corrupt =
      c "frames dropped for CRC or framing violations, and digest-mismatched results"
        "fmc_dist_frames_corrupt_total";
    connections = g "live service connections" "fmc_sched_connections";
    draining = g "1 while draining" "fmc_sched_draining";
    leasing_paused =
      g "1 while leasing is paused below the require-workers floor" "fmc_dist_leasing_paused";
  }

(* A name that has asked for a shard. *)
type lessee = {
  pool : bool;  (* it asks with the pool fingerprint *)
  mutable seen : float;  (* its last message or hang-up *)
  mutable settled : bool;
      (* owed no answer since its last request: told [finished = true],
         or it lost a lease and is presumed dead *)
}

type state = {
  mutex : Mutex.t;
  sched : Sched.t;
  config : config;
  pinned : string option;  (* the fingerprint of [faultmc serve]'s one campaign *)
  drain_flag : bool Atomic.t;
  mutable stopped : bool;  (* [serve] has returned *)
  mutable connected : int;
  conn_workers : (string, int) Hashtbl.t;  (* live post-Hello connections per worker *)
  lessees : (string, lessee) Hashtbl.t;
  mutable last_busy : float;  (* last tick with a connection open *)
  mx : mx;
  fleet : Fleet.t;  (* absorbed worker telemetry; has its own lock *)
}

let locked st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let cinc = Option.iter Metrics.inc
let cadd c n = Option.iter (fun c -> Metrics.add c (float_of_int n)) c
let gset g v = Option.iter (fun g -> Metrics.set g (float_of_int v)) g

(* Distinct names that have asked for a shard, with a live connection
   and no open breaker — the population the require_workers floor and
   the self-audit rule are measured against. *)
let healthy_workers st ~now =
  Hashtbl.fold
    (fun worker refs n ->
      if refs > 0 && Hashtbl.mem st.lessees worker && Sched.healthy st.sched ~now ~worker then
        n + 1
      else n)
    st.conn_workers 0

let leasing_paused st ~now =
  let paused =
    st.config.require_workers > 0 && healthy_workers st ~now < st.config.require_workers
  in
  gset st.mx.leasing_paused (if paused then 1 else 0);
  paused

(* A lessee the service still owes its [finished = true]: not settled,
   not quarantined (refused from now on), and heard from recently
   enough to be alive. The service presumes a silent lease holder lost
   after the lease TTL; an idle worker may add one reconnect back-off
   sleep at the worker's default cap. [pool_only] counts pool workers
   alone, whom a drain tells to go. *)
let owed st ~now ~pool_only =
  let silence =
    st.config.sched.Sched.ttl_s +. Fmc_dist.Worker.default_retry.Fmc_dist.Worker.cap_s
  in
  Hashtbl.fold
    (fun worker l n ->
      if
        (not l.settled)
        && (l.pool || not pool_only)
        && now -. l.seen <= silence
        && not (Sched.is_banned st.sched ~worker)
      then n + 1
      else n)
    st.lessees 0

let heard st ~worker ~now =
  Option.iter (fun l -> l.seen <- now) (Hashtbl.find_opt st.lessees worker)

let fence st ~worker = function
  | `Stale -> Option.iter (fun l -> l.settled <- true) (Hashtbl.find_opt st.lessees worker)
  | _ -> ()

exception Done_serving

(* -- message handling (call under the lock) ------------------------------ *)

let complete_reply st = function
  | `Accepted -> Protocol.Ack { accepted = true; reason = "" }
  | `Duplicate -> Protocol.Ack { accepted = true; reason = "duplicate" }
  | `Stale -> Protocol.Ack { accepted = false; reason = "stale epoch" }
  | `Unknown -> Protocol.Ack { accepted = false; reason = "unknown shard or campaign" }
  | `Invalid msg -> Protocol.Ack { accepted = false; reason = "undecodable tally: " ^ msg }
  | `Mismatch ->
      (* A payload that disagrees with its own digest is charged like a
         corrupt frame. *)
      cinc st.mx.frames_corrupt;
      Protocol.Ack { accepted = false; reason = "result digest mismatch" }
  | `Audited reason -> Protocol.Ack { accepted = true; reason }

let heartbeat_reply = function
  | `Ok -> Protocol.Ack { accepted = true; reason = "" }
  | `Stale -> Protocol.Ack { accepted = false; reason = "lease lost" }

let handle_msg st ~scope ~worker ~digest msg =
  let now = Clock.now () in
  let sched = st.sched in
  let pool = scope = Protocol.pool_fingerprint in
  let foreign fingerprint = st.pinned <> None && st.pinned <> Some fingerprint in
  match (msg : Protocol.client_msg) with
  | Protocol.Hello _ -> Protocol.Reject { reason = "duplicate hello" }
  | Protocol.Submit { spec } when foreign (Protocol.spec_fingerprint spec) ->
      Protocol.Reject { reason = "serve holds one campaign" }
  | Protocol.Cancel _ when st.pinned <> None ->
      Protocol.Reject { reason = "serve holds one campaign; it cannot be cancelled" }
  | Protocol.Submit { spec } -> (
      match Sched.submit sched ~now spec with
      | `Queued position ->
          Protocol.Submitted
            { fingerprint = Protocol.spec_fingerprint spec; position; cached = false }
      | `Cached ->
          Protocol.Submitted
            { fingerprint = Protocol.spec_fingerprint spec; position = 0; cached = true }
      | `Rejected retry_after_s ->
          Protocol.Sched_rejected { retry_after_s; reason = "queue full" }
      | `Invalid reason -> Protocol.Reject { reason = "invalid campaign spec: " ^ reason })
  | Protocol.Status_req { fingerprint } -> (
      match Sched.status sched ~now ~fingerprint with
      | [] when fingerprint <> "" -> Protocol.Reject { reason = "unknown campaign" }
      | entries -> Protocol.Status { entries })
  | Protocol.Cancel { fingerprint } -> (
      match Sched.cancel sched ~fingerprint with
      | `Cancelled -> Protocol.Ack { accepted = true; reason = "" }
      | `Already_finished ->
          Protocol.Ack { accepted = false; reason = "already finished (report is cached)" }
      | `Unknown -> Protocol.Ack { accepted = false; reason = "unknown campaign" })
  | Protocol.Request_shard ->
      let l = { pool; seen = now; settled = false } in
      Hashtbl.replace st.lessees worker l;
      if leasing_paused st ~now then Protocol.No_work { finished = false }
      else (
        match Sched.next_job sched ~now ~worker ~scope ~alone:(healthy_workers st ~now <= 1) with
        | `Job (spec, { Sched.Lease.shard; epoch; start; len }) ->
            Protocol.Job { spec; shard; epoch; start; len }
        | `Wait when st.stopped -> raise Done_serving
        | `Wait -> Protocol.No_work { finished = false }
        | `Drained ->
            l.settled <- true;
            Protocol.No_work { finished = true }
        | `Banned -> Protocol.Reject { reason = "worker quarantined: failed result audit" })
  | Protocol.Heartbeat _ | Protocol.Shard_done _ ->
      Protocol.Reject { reason = "leases heartbeat with job_heartbeat and complete with job_done" }
  | Protocol.Job_heartbeat { fingerprint; shard; epoch; samples_done = _ } ->
      let r = Sched.heartbeat sched ~now ~worker ~fingerprint ~shard ~epoch in
      fence st ~worker r;
      heartbeat_reply r
  | Protocol.Job_done { fingerprint; shard; epoch; tally; quarantined } ->
      let r =
        Sched.complete sched ~now ~fingerprint ~shard ~epoch ~worker ~digest ~tally ~quarantined
      in
      fence st ~worker r;
      complete_reply st r
  | Protocol.Fetch_report ->
      if pool then Protocol.Reject { reason = "fetch_report needs a campaign-scoped connection" }
      else (
        match Sched.report sched ~fingerprint:scope with
        | Some (shards, quarantined, elapsed_s) ->
            Protocol.Report { shards; quarantined; elapsed_s }
        | None -> (
            match Sched.status sched ~now ~fingerprint:scope with
            | [] -> Protocol.Reject { reason = "unknown campaign" }
            | entries -> Protocol.Status { entries }))
  | Protocol.Goodbye -> raise Done_serving

(* -- per-connection protocol --------------------------------------------- *)

let send ?ext conn msg =
  let tag, payload = Protocol.encode_server_ext ?ext msg in
  Wire.write_frame conn ~tag payload

(* Outside the state mutex; the fleet store has its own lock. A blob
   that does not decode is dropped — telemetry is observation-only. *)
let absorb_telemetry st ~worker (ext : Protocol.extension) =
  match ext.Protocol.ext_telemetry with
  | None -> ()
  | Some blob -> (
      match Telemetry.decode blob with
      | Ok tm -> Fleet.absorb st.fleet ~worker tm
      | Error _ -> ())

(* Trace/span ids stamped on leases: pure functions of the campaign
   fingerprint and shard index. *)
let trace_ext = function
  | Protocol.Job { spec; shard; _ } ->
      let fingerprint = Protocol.spec_fingerprint spec in
      Some (Traceid.trace_id ~fingerprint, Traceid.span_id ~fingerprint ~shard)
  | _ -> None

(* The first frame must be a current-version Hello naming the pool scope
   or a campaign the service holds. Refusals at this point are terminal
   Rejects — the one refusal a worker does not retry — except an open
   circuit breaker, which parks the worker with Retry_later. Returns the
   worker name and scope, or raises Done_serving after answering. *)
let expect_hello st conn =
  let reject reason =
    send conn (Protocol.Reject { reason });
    raise Done_serving
  in
  match Wire.read_frame_raw conn with
  | `Corrupt _ ->
      locked st (fun () -> cinc st.mx.frames_corrupt);
      raise Done_serving
  | `Ok (tag, payload) -> (
      match Protocol.decode_client tag payload with
      | Ok (Protocol.Hello { version; worker; fingerprint }) -> (
          if not (Protocol.accepts_version version) then
            reject (Printf.sprintf "protocol version %d, want %d" version Protocol.version);
          let now = Clock.now () in
          match
            locked st (fun () ->
                if fingerprint = Protocol.pool_fingerprint || Sched.holds st.sched ~fingerprint
                then Some (Sched.admit st.sched ~now ~worker)
                else None)
          with
          | None -> reject "unknown campaign fingerprint"
          | Some `Banned -> reject "worker quarantined: failed result audit"
          | Some (`Parked cooldown) ->
              send conn (Protocol.Retry_later { cooldown_s = Float.max 0.1 cooldown });
              raise Done_serving
          | Some `Ok ->
              send conn (Protocol.Welcome { version = Protocol.version });
              (worker, fingerprint))
      | Ok _ | Error _ -> reject "expected hello")

let handle_conn st fd =
  let conn =
    Wire.conn fd ~deadline_s:st.config.io_deadline_s
      ~on_sent:(fun n -> locked st (fun () -> cadd st.mx.bytes_sent n))
      ~on_recv:(fun n -> locked st (fun () -> cadd st.mx.bytes_received n))
  in
  let worker_name = ref None in
  let refs w d =
    Hashtbl.replace st.conn_workers w
      (d + Option.value (Hashtbl.find_opt st.conn_workers w) ~default:0)
  in
  let finally () =
    Wire.close conn;
    locked st (fun () ->
        st.connected <- st.connected - 1;
        gset st.mx.connections st.connected;
        Option.iter
          (fun w ->
            refs w (-1);
            heard st ~worker:w ~now:(Clock.now ()))
          !worker_name)
  in
  locked st (fun () ->
      st.connected <- st.connected + 1;
      gset st.mx.connections st.connected);
  Fun.protect ~finally (fun () ->
      try
        let worker, scope = expect_hello st conn in
        worker_name := Some worker;
        locked st (fun () ->
            refs worker 1;
            heard st ~worker ~now:(Clock.now ()));
        let rec loop () =
          (match Wire.read_frame_raw conn with
          | `Corrupt _ ->
              (* The content cannot be trusted: charge the worker, tell
                 it to back off and reconnect, then hang up. *)
              let cooldown_s =
                locked st (fun () ->
                    cinc st.mx.frames_corrupt;
                    Sched.note_failure st.sched ~now:(Clock.now ()) ~worker)
              in
              send conn (Protocol.Retry_later { cooldown_s = Float.max 0.05 cooldown_s });
              raise Done_serving
          | `Ok (tag, payload) -> (
              match Protocol.decode_client_ext tag payload with
              | Ok (msg, ext) -> (
                  absorb_telemetry st ~worker ext;
                  (* A worker quarantined mid-session gets a terminal
                     reject instead of service. *)
                  match
                    locked st (fun () ->
                        heard st ~worker ~now:(Clock.now ());
                        if Sched.is_banned st.sched ~worker then None
                        else
                          Some (handle_msg st ~scope ~worker ~digest:ext.Protocol.ext_digest msg))
                  with
                  | None ->
                      send conn
                        (Protocol.Reject { reason = "worker quarantined: failed result audit" });
                      raise Done_serving
                  | Some reply ->
                      send
                        ~ext:{ Protocol.no_extension with ext_trace = trace_ext reply }
                        conn reply)
              | Error msg ->
                  locked st (fun () ->
                      ignore (Sched.note_failure st.sched ~now:(Clock.now ()) ~worker : float));
                  send conn (Protocol.Reject { reason = msg })));
          loop ()
        in
        loop ()
      with
      | Done_serving | Wire.Closed | Wire.Protocol_error _ | Wire.Timeout | Unix.Unix_error _
      | Sys_error _
      ->
        ())

(* -- the fleet view ------------------------------------------------------ *)

let make_view st (obs : Obs.t) =
  let base_snapshot () =
    match obs.Obs.metrics with Some r -> locked st (fun () -> Metrics.snapshot r) | None -> []
  in
  let vw_metrics () =
    Metrics.to_prometheus (Fleet.merged_snapshot st.fleet ~base:(base_snapshot ()))
  in
  let vw_health () =
    let now = Clock.now () in
    locked st (fun () ->
        let sm = Sched.summary st.sched ~now in
        {
          h_draining = Sched.draining st.sched;
          h_finished = sm.Sched.sm_queue_depth = 0;
          h_queue_depth = sm.Sched.sm_queue_depth;
          h_shards_done = sm.Sched.sm_shards_done;
          h_shards_total = sm.Sched.sm_shards_total;
          h_in_flight = sm.Sched.sm_in_flight;
          h_connected = st.connected;
          h_healthy_workers = healthy_workers st ~now;
          h_breakers_open = sm.Sched.sm_breakers_open;
          h_leasing_paused = leasing_paused st ~now;
          h_audits_pending = sm.Sched.sm_audits_pending;
          h_quarantined_workers = sm.Sched.sm_banned;
          h_wal_torn = sm.Sched.sm_wal_torn;
        })
  in
  let vw_status () =
    let now = Clock.now () in
    locked st (fun () -> Sched.status st.sched ~now ~fingerprint:"")
  in
  let vw_workers () =
    let now = Clock.now () in
    let fleet = Fleet.workers st.fleet in
    locked st (fun () ->
        let health = Sched.worker_health st.sched ~now in
        (* Every name the service has seen by any channel: connections,
           breakers, absorbed telemetry. *)
        let names = Hashtbl.create 8 in
        Hashtbl.iter (fun w _ -> Hashtbl.replace names w ()) st.conn_workers;
        List.iter (fun (w, _) -> Hashtbl.replace names w ()) health;
        List.iter (fun (w, _) -> Hashtbl.replace names w ()) fleet;
        Hashtbl.fold (fun w () acc -> w :: acc) names []
        |> List.sort compare
        |> List.map (fun w ->
               let info = List.assoc_opt w fleet and h = List.assoc_opt w health in
               {
                 w_name = w;
                 w_breaker = (match h with Some h -> h.Sched.wh_breaker | None -> Breaker.Closed);
                 w_connections = Option.value (Hashtbl.find_opt st.conn_workers w) ~default:0;
                 w_spans = (match info with Some i -> i.Fleet.wi_span_count | None -> 0);
                 w_last_wall = (match info with Some i -> i.Fleet.wi_last_wall | None -> 0.);
                 w_trace_id = (match info with Some i -> i.Fleet.wi_trace_id | None -> "");
                 w_quarantined = (match h with Some h -> h.Sched.wh_banned | None -> false);
                 w_mismatches = (match h with Some h -> h.Sched.wh_mismatches | None -> 0);
               }))
  in
  let vw_trace_json () =
    let own_events =
      match obs.Obs.tracer with Some tr -> Span.events tr | None -> []
    in
    Fleet.to_chrome_json ~own_events st.fleet
  in
  { vw_metrics; vw_health; vw_status; vw_workers; vw_trace_json }

(* -- the serve loop ------------------------------------------------------ *)

let install_drain_handlers flag =
  let install s =
    try Some (s, Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set flag true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  List.filter_map install [ Sys.sigterm; Sys.sigint ]

let restore_handlers saved =
  List.iter
    (fun (s, old) -> try Sys.set_signal s old with Invalid_argument _ | Sys_error _ -> ())
    saved

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* One tick's stop decision (under the lock). A requested drain wins
   over everything, the linger of a finished pinned campaign included,
   once nothing is in flight and no pool worker is owed its answer.
   Idle means: for a pinned campaign, unfinished with no connection
   open; otherwise, an empty queue with no scheduling activity. *)
let stop_reason st ~now ~pinned ~finished_at =
  let drain_requested = Atomic.get st.drain_flag in
  if drain_requested then begin
    Sched.drain st.sched;
    gset st.mx.draining 1
  end;
  let idle_since =
    if pinned = None then Sched.last_activity st.sched else st.last_busy
  in
  if drain_requested && Sched.in_flight st.sched = 0 && owed st ~now ~pool_only:true = 0 then
    Some Drained
  else
    match (pinned, finished_at) with
    | Some c, Some t ->
        if now -. t >= c.linger_s && st.connected = 0 && owed st ~now ~pool_only:false = 0 then
          Some Finished
        else None
    | _ ->
        if
          st.config.max_idle_s > 0.
          && (pinned <> None || Sched.idle st.sched)
          && now -. idle_since >= st.config.max_idle_s
        then Some Idle
        else None

let serve ?(obs = Obs.disabled) ?(on_ready = fun (_ : control) -> ()) ?on_view ?campaign
    (config : config) =
  if config.require_workers < 0 then invalid_arg "Service.serve: negative require_workers";
  let now = Clock.now () in
  let dir =
    match config.state_dir with Some d -> d | None -> Filename.temp_dir "faultmc-serve" ".state"
  in
  let discard_state () = if config.state_dir = None then rm_rf dir in
  let sched =
    try Sched.create ~obs config.sched ~dir ~now
    with e ->
      discard_state ();
      raise e
  in
  let st =
    {
      mutex = Mutex.create ();
      sched;
      config;
      pinned = Option.map (fun c -> Protocol.spec_fingerprint c.spec) campaign;
      drain_flag = Atomic.make false;
      stopped = false;
      connected = 0;
      conn_workers = Hashtbl.create 8;
      lessees = Hashtbl.create 8;
      last_busy = now;
      mx = mx_create obs;
      fleet = Fleet.create ();
    }
  in
  Fun.protect
    ~finally:(fun () ->
      locked st (fun () ->
          st.stopped <- true;
          Sched.shutdown st.sched);
      discard_state ())
    (fun () ->
      (* The pinned campaign is submitted before the socket is bound, so
         a bad checkpoint fails the start-up, not a worker's session. *)
      Option.iter
        (fun c ->
          match Sched.submit sched ~now ?checkpoint:c.checkpoint c.spec with
          | `Queued _ | `Cached -> ()
          | `Rejected _ -> invalid_arg "Service.serve: campaign refused by admission control"
          | `Invalid reason -> invalid_arg ("Service.serve: " ^ reason))
        campaign;
      Option.iter (fun f -> f (make_view st obs)) on_view;
      let saved = if config.handle_signals then install_drain_handlers st.drain_flag else [] in
      let sock = Wire.listen config.addr in
      let finally () =
        restore_handlers saved;
        (try Unix.close sock with Unix.Unix_error _ -> ());
        match config.addr with
        | Wire.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Wire.Tcp _ -> ()
      in
      Fun.protect ~finally (fun () ->
          on_ready { request_drain = (fun () -> Atomic.set st.drain_flag true) };
          Obs.span obs ~cat:"sched" "serve" (fun () ->
              let finished_at = ref None in
              let reason = ref None in
              while !reason = None do
                let readable, _, _ =
                  try Unix.select [ sock ] [] [] 0.2
                  with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
                in
                (match readable with
                | [ _ ] ->
                    let fd, _ = Unix.accept sock in
                    ignore (Thread.create (fun () -> handle_conn st fd) ())
                | _ -> ());
                let now = Clock.now () in
                locked st (fun () ->
                    Sched.sweep st.sched ~now;
                    ignore (leasing_paused st ~now : bool);
                    if st.connected > 0 then st.last_busy <- now;
                    (match st.pinned with
                    | Some fingerprint
                      when !finished_at = None && Sched.report st.sched ~fingerprint <> None ->
                        (* Nothing left to lease: pool workers are told to
                           go, report fetches are still answered. *)
                        finished_at := Some now;
                        Sched.drain st.sched
                    | _ -> ());
                    reason := stop_reason st ~now ~pinned:campaign ~finished_at:!finished_at)
              done;
              {
                sv_reason = Option.get !reason;
                sv_report =
                  locked st (fun () ->
                      Option.bind st.pinned (fun fingerprint ->
                          Sched.report st.sched ~fingerprint));
              })))
