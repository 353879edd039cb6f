(* The campaign service core (DESIGN.md §10): a durable submission
   queue keyed by campaign fingerprint, one lease table per campaign,
   round-robin shard dispatch across every active campaign, report
   caching, result auditing and per-worker health.

   Durability is split between two artifacts, both in the one sealed
   framing of Fmc_prelude.Record:

     <dir>/queue              the queue itself: which campaigns were
                              submitted, finished, parked or cancelled,
                              and which workers were quarantined — a
                              snapshot of idempotent records followed by
                              one fsynced delta per record, replayed and
                              compacted at startup;
     <dir>/campaigns/<md5>.ckpt
                              per-campaign progress (Fmc_dist.Ckpt):
                              every accepted shard blob and its audit
                              bookkeeping, a snapshot followed by one
                              appended delta per accepted shard or
                              audit pass. A campaign submitted with an
                              explicit checkpoint path keeps it there
                              instead (`faultmc serve --checkpoint`).

   The checkpoint is written whole only when it is created and at its
   compaction points: when the campaign completes, when an audit verdict
   or a quarantine drops or replaces accepted results (a delta cannot),
   and when recovery finds deltas or a damaged tail in it, so no delta
   is ever appended after torn bytes.

   kill -9 recovery is therefore: replay the queue log to rebuild the
   queue in submission order, then reattach each campaign's checkpoint
   to seed its lease table's Done set. A campaign whose checkpoint holds
   every shard is finished even if the crash beat the "finished" record;
   a campaign whose log says finished but whose checkpoint is missing
   shards is quietly re-queued — shard results depend only on
   (seed, shard), so re-running them reproduces the identical report.

   Worker health lives here too, next to the lease expiries, digest
   strikes and audit verdicts that feed it: a per-worker circuit breaker
   (Fmc_dist.Breaker) counts consecutive failures, and a quarantine
   trips it for good.

   Nothing here reads the wall clock or takes locks: every operation is
   given [now] and the service serializes calls under its own mutex,
   the same split Lease uses. *)

open Fmc
module Protocol = Fmc_dist.Protocol
module Lease = Fmc_dist.Lease
module Breaker = Fmc_dist.Breaker
module Ckpt = Fmc_dist.Ckpt
module Crc32 = Fmc_prelude.Crc32
module Record = Fmc_prelude.Record
module Audit = Fmc_audit.Audit
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics
module Rate = Fmc_obs.Rate
module Clock = Fmc_obs.Clock

type config = {
  queue_depth : int;  (* max campaigns queued or running; 0 = unbounded *)
  ttl_s : float;  (* shard lease lifetime without a heartbeat *)
  wall_budget_s : float;  (* running wall clock before a campaign is parked; 0 = off *)
  retry_after_s : float;  (* resubmission hint in admission rejections *)
  audit_rate : float;  (* fraction of accepted shards re-executed (DESIGN.md §16); 0 = off *)
  speculate_factor : float;  (* straggler duplication threshold over the shard EWMA; 0 = off *)
  breaker : Breaker.config;  (* per-worker circuit breaker *)
}

let default_config =
  {
    queue_depth = 16;
    ttl_s = 30.;
    wall_budget_s = 0.;
    retry_after_s = 5.;
    audit_rate = 0.;
    speculate_factor = 0.;
    breaker = Breaker.default_config;
  }

type checkpoint_error = Unreadable of string | Foreign_campaign

exception Bad_checkpoint of string * checkpoint_error

type phase = Active | Finished | Parked of string | Cancelled

type entry = {
  spec : Protocol.spec;
  fp : string;
  ckpt_path : string;
  plan : (int * int) array;
  lease : Lease.t;
  blobs : (int, string) Hashtbl.t;
  quarantines : (int, Campaign.quarantine_entry list) Hashtbl.t;  (* by producing shard *)
  mutable audit : Audit.t;  (* replaced wholesale on checkpoint reattach *)
  mutable appendable : bool;
      (* the checkpoint file ends where this process last wrote it or
         read it as a bare snapshot, so a delta may follow *)
  mutable phase : phase;
  mutable started_at : float option;
  mutable done_samples : int;
  mutable elapsed_s : float;  (* start-to-finish wall clock, once Finished *)
}

type mx = {
  submissions : Metrics.counter option;
  rejected : Metrics.counter option;
  cache_hits : Metrics.counter option;
  recoveries : Metrics.counter option;
  finished : Metrics.counter option;
  parked : Metrics.counter option;
  cancelled : Metrics.counter option;
  wal_records : Metrics.counter option;
  wal_torn : Metrics.counter option;
  q_depth : Metrics.gauge option;
  running : Metrics.gauge option;
  in_flight : Metrics.gauge option;
  wal_fsync : Metrics.histogram option;
  leases_issued : Metrics.counter option;
  leases_expired : Metrics.counter option;
  stale_results : Metrics.counter option;
  shards_completed : Metrics.counter option;
  heartbeats : Metrics.counter option;
  breaker_opened : Metrics.counter option;
  circuit_open : Metrics.gauge option;
  roundtrip : Metrics.histogram option;
  audits : Metrics.counter option;
  audit_mismatches : Metrics.counter option;
  audit_disputes : Metrics.counter option;
  audit_invalidated : Metrics.counter option;
  audit_speculations : Metrics.counter option;
  audit_quarantined : Metrics.gauge option;
}

let mx_create (obs : Obs.t) =
  let r = obs.Obs.metrics in
  let c help name = Option.map (fun r -> Metrics.counter r ~help name) r in
  let g help name = Option.map (fun r -> Metrics.gauge r ~help name) r in
  let h help name buckets = Option.map (fun r -> Metrics.histogram r ~help ~buckets name) r in
  {
    submissions = c "campaign submissions accepted" "fmc_sched_submissions_total";
    rejected = c "submissions refused by admission control" "fmc_sched_rejected_total";
    cache_hits = c "submissions answered from the report cache" "fmc_sched_cache_hits_total";
    recoveries = c "campaigns recovered from queue log + checkpoints" "fmc_sched_recoveries_total";
    finished = c "campaigns run to completion" "fmc_sched_campaigns_finished_total";
    parked = c "campaigns parked by quarantine policy" "fmc_sched_parked_total";
    cancelled = c "campaigns cancelled by request" "fmc_sched_cancelled_total";
    wal_records = c "intact queue-log records replayed at startup" "fmc_sched_wal_records_total";
    wal_torn = c "damaged queue-log tails dropped at startup" "fmc_sched_wal_torn_records_total";
    q_depth = g "campaigns queued or running" "fmc_sched_queue_depth";
    running = g "campaigns with completed or in-flight shards" "fmc_sched_campaigns_running";
    in_flight = g "shard leases currently live across campaigns" "fmc_sched_shards_in_flight";
    wal_fsync =
      h "durable queue-log append latency (write + fsync)" "fmc_sched_wal_fsync_seconds"
        [| 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1. |];
    leases_issued = c "shard leases handed out" "fmc_dist_leases_issued_total";
    leases_expired = c "leases lost to missed heartbeats" "fmc_dist_leases_expired_total";
    stale_results = c "shard results rejected by epoch fencing" "fmc_dist_stale_results_total";
    shards_completed = c "shard results accepted into the merge" "fmc_dist_shards_completed_total";
    heartbeats = c "heartbeats received" "fmc_dist_heartbeats_total";
    breaker_opened = c "circuit-breaker open transitions" "fmc_dist_breaker_opened_total";
    circuit_open = g "workers behind an open circuit breaker" "fmc_dist_circuit_open";
    roundtrip =
      h "assign-to-accepted latency per shard" "fmc_dist_shard_roundtrip_seconds"
        [| 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 30.; 60.; 120. |];
    audits = c "audit re-executions leased" "fmc_audit_audits_total";
    audit_mismatches =
      c "shard results whose digest failed verification" "fmc_audit_mismatches_total";
    audit_disputes =
      c "audits escalated to a third arbitrating execution" "fmc_audit_disputes_total";
    audit_invalidated =
      c "accepted shards invalidated by a quarantine" "fmc_audit_invalidated_total";
    audit_speculations = c "speculative duplicate leases issued" "fmc_audit_speculations_total";
    audit_quarantined = g "workers quarantined by audit verdicts" "fmc_audit_quarantined_workers";
  }

let cinc = Option.iter Metrics.inc
let cadd c v = Option.iter (fun c -> Metrics.add c v) c
let gset g v = Option.iter (fun g -> Metrics.set g (float_of_int v)) g

type t = {
  config : config;
  dir : string;
  queue : string;  (* the queue log's path *)
  torn_at_start : int;
  entries : (string, entry) Hashtbl.t;
  mutable order : string list;  (* submission order, oldest first *)
  mutable rotation : int;  (* round-robin cursor over active entries *)
  rate : Rate.t;
  mutable draining : bool;
  mutable last_activity : float;
  mutable banned : string list;  (* workers quarantined by audit verdicts, fleet-wide *)
  mismatches : (string, int) Hashtbl.t;  (* digest-mismatch strikes per worker *)
  health : (string, Breaker.t) Hashtbl.t;  (* per-worker breaker, for the whole run *)
  mutable shard_ewma : float option;  (* fleet per-shard wall-clock EWMA (speculation) *)
  mx : mx;
}

(* -- the queue log ------------------------------------------------------- *)

(* A queue record is its kind, then its fields, one line each. *)
let one_line = Record.one_line
let rec_submit spec = [ "submit"; Protocol.spec_line spec ]
let rec_finished fp elapsed = [ "finished"; fp; Record.hexf elapsed ]
let rec_parked fp reason = [ "parked"; fp; one_line reason ]
let rec_cancelled fp = [ "cancelled"; fp ]
let rec_quarantine worker = [ "quarantined"; one_line worker ]

(* The log is a sealed snapshot (this header, a ["records n"] count and
   n records) followed by one delta per record appended since, each
   record a ["record k"] section of its lines: a campaign checkpoint's
   shape. Every write is fsynced, so a record is durable before the
   call that logged it returns. *)
let queue_header = "faultmc-queue 1"

let write_queue ~path records =
  let buf = Buffer.create 1024 in
  Record.add_line buf queue_header;
  Printf.bprintf buf "records %d\n" (List.length records);
  List.iter (Record.add_section buf "record") records;
  Record.write_sealed ~sync:true ~path (Buffer.contents buf)

let read_record c = Record.section c "record" Fun.id

(* The snapshot's records and the intact deltas', oldest first, and 1
   if a damaged delta ended the replay, else 0. *)
let read_queue ~path =
  Record.load_appended ~path
    ~header:(fun h -> if h <> queue_header then Record.fail "not a queue log: %S" h)
    (fun c -> Record.take (Record.count c "records") (fun () -> read_record c))
    (fun c ->
      let r = read_record c in
      Record.finish c;
      r)
  |> Result.map (fun (snapshot, deltas, whole) -> (snapshot @ deltas, if whole then 0 else 1))

(* Observation-only exception to the injected-[now] design: the fsync
   stopwatch reads the process clock directly, because callers inject
   logical time (tests drive a fake [now]) while the fsync cost being
   measured is real. *)
let queue_append t record =
  let buf = Buffer.create 128 in
  Record.add_section buf "record" record;
  let append () = Record.append_sealed ~sync:true ~path:t.queue (Buffer.contents buf) in
  match t.mx.wal_fsync with
  | None -> append ()
  | Some h ->
      let t0 = Clock.now () in
      append ();
      Metrics.observe h (Float.max 0. (Clock.now () -. t0))

type queue_op =
  | Op_submit of Protocol.spec
  | Op_finished of string * float
  | Op_parked of string * string
  | Op_cancelled of string
  | Op_quarantine of string

let parse_record = function
  | [ "submit"; line ] -> (
      match Protocol.spec_of_line line with Ok sp -> Some (Op_submit sp) | Error _ -> None)
  | [ "finished"; fp; e ] ->
      Some (Op_finished (fp, Option.value (float_of_string_opt e) ~default:0.))
  | [ "parked"; fp; reason ] -> Some (Op_parked (fp, reason))
  | [ "cancelled"; fp ] -> Some (Op_cancelled fp)
  | [ "quarantined"; worker ] -> Some (Op_quarantine worker)
  | _ -> None

(* -- worker health (breakers) ---------------------------------------------- *)

let breaker_for t worker =
  match Hashtbl.find_opt t.health worker with
  | Some b -> b
  | None ->
      let b = Breaker.create t.config.breaker in
      Hashtbl.add t.health worker b;
      b

let open_breakers t ~now =
  Hashtbl.fold (fun _ b n -> if Breaker.state b ~now = Breaker.Open then n + 1 else n) t.health 0

let note_failure t ~now ~worker =
  let b = breaker_for t worker in
  let trips = Breaker.trips b in
  Breaker.record_failure b ~now;
  if Breaker.trips b > trips then cinc t.mx.breaker_opened;
  gset t.mx.circuit_open (open_breakers t ~now);
  Breaker.cooldown_remaining b ~now

let note_success t ~now ~worker =
  Breaker.record_success (breaker_for t worker) ~now;
  gset t.mx.circuit_open (open_breakers t ~now)

let is_banned t ~worker = List.mem worker t.banned

let admit t ~now ~worker =
  if is_banned t ~worker then `Banned
  else
    let b = breaker_for t worker in
    if Breaker.allow b ~now then `Ok else `Parked (Breaker.cooldown_remaining b ~now)

let healthy t ~now ~worker = Breaker.state (breaker_for t worker) ~now <> Breaker.Open

(* -- entries ------------------------------------------------------------- *)

let ckpt_dir_of dir = Filename.concat dir "campaigns"

let audit_seed ~fp = Int64.of_int (Crc32.string fp)

let audit_config config ~fp =
  { Audit.rate = config.audit_rate; seed = audit_seed ~fp }

let make_entry config ~dir ?checkpoint spec =
  let fp = Protocol.spec_fingerprint spec in
  let plan =
    Ssf.shard_plan ~samples:spec.Protocol.sp_samples ~shard_size:spec.Protocol.sp_shard_size
  in
  let ckpt_path =
    match checkpoint with
    | Some path -> path
    | None -> Filename.concat (ckpt_dir_of dir) (Digest.to_hex (Digest.string fp) ^ ".ckpt")
  in
  {
    spec;
    fp;
    ckpt_path;
    plan;
    lease = Lease.create ~plan ~ttl:config.ttl_s;
    blobs = Hashtbl.create 16;
    quarantines = Hashtbl.create 16;
    audit = Audit.create (audit_config config ~fp) ~nshards:(Array.length plan);
    appendable = false;
    phase = Active;
    started_at = None;
    done_samples = 0;
    elapsed_s = 0.;
  }

let spec_valid (sp : Protocol.spec) =
  if sp.Protocol.sp_samples <= 0 then Error "non-positive sample count"
  else if sp.Protocol.sp_shard_size <= 0 then Error "non-positive shard size"
  else
    (* Reject unresolvable fault models at submission, not when a pool
       worker fails to build the job (which would burn its reconnect
       budget on a spec that can never run). *)
    match Fmc_fault.Registry.parse sp.Protocol.sp_fault_model with
    | Ok _ -> Ok ()
    | Error e -> Error (Fmc_fault.Registry.error_message e)

let active e = match e.phase with Active -> true | Finished | Parked _ | Cancelled -> false

let iter_ordered t f =
  List.iter (fun fp -> match Hashtbl.find_opt t.entries fp with Some e -> f e | None -> ()) t.order

let active_entries t =
  List.filter_map
    (fun fp ->
      match Hashtbl.find_opt t.entries fp with Some e when active e -> Some e | _ -> None)
    t.order

let refresh_gauges t =
  let act = active_entries t in
  gset t.mx.q_depth (List.length act);
  gset t.mx.running
    (List.length (List.filter (fun e -> e.done_samples > 0 || Lease.in_flight e.lease > 0) act));
  gset t.mx.in_flight (List.fold_left (fun n e -> n + Lease.in_flight e.lease) 0 act)

let sorted_quarantined e =
  Hashtbl.fold (fun _ qs acc -> List.rev_append qs acc) e.quarantines []
  |> List.sort (fun a b -> compare a.Campaign.q_index b.Campaign.q_index)

let sorted_blobs e =
  Hashtbl.fold (fun i b acc -> (i, b) :: acc) e.blobs []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

(* The checkpoint carries the fleet-wide quarantine list as well, so a
   campaign resumed from its checkpoint alone (`serve --checkpoint`,
   whose queue log dies with the process) still refuses the workers it
   banned. A failed write leaves the file behind the tables, so nothing
   may be appended to it until a save succeeds. *)
let save_ckpt t e =
  let dir = Filename.dirname e.ckpt_path in
  (if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  e.appendable <- false;
  Ckpt.save ~path:e.ckpt_path
    {
      Ckpt.st_fingerprint = e.fp;
      st_shards = sorted_blobs e;
      st_quarantined = sorted_quarantined e;
      st_audit =
        { Ckpt.au_entries = Audit.export e.audit; au_banned = List.rev t.banned };
    };
  e.appendable <- true

(* -- recovery ------------------------------------------------------------ *)

let shard_len e shard = if shard >= 0 && shard < Array.length e.plan then snd e.plan.(shard) else 0

(* Re-attribute a flat quarantine log to producing shards by global
   sample index over the plan's ranges — checkpoints (and the wire
   protocol) carry the log flat, while invalidation needs to drop
   exactly one shard's entries. *)
let shard_of_qindex e qi =
  let found = ref None in
  Array.iteri
    (fun shard (start, len) -> if !found = None && qi > start && qi <= start + len then found := Some shard)
    e.plan;
  !found

let attach_quarantines e entries =
  Hashtbl.reset e.quarantines;
  List.iter
    (fun q ->
      match shard_of_qindex e q.Campaign.q_index with
      | None -> ()
      | Some shard ->
          let prev = Option.value (Hashtbl.find_opt e.quarantines shard) ~default:[] in
          Hashtbl.replace e.quarantines shard (q :: prev))
    entries

(* Load [e]'s checkpoint, if it has one, into its tables; returns the
   quarantined workers it names. A file with deltas is rewritten as a
   bare snapshot of what was read, so no delta is ever appended after a
   damaged tail, which would hide it from the next recovery. *)
let attach_ckpt ~config e =
  if not (Sys.file_exists e.ckpt_path) then Ok []
  else
    match Ckpt.read ~path:e.ckpt_path with
    | Error msg -> Error (Unreadable msg)
    | Ok (st, _) when st.Ckpt.st_fingerprint <> e.fp -> Error Foreign_campaign
    | Ok (st, shape) ->
        if shape = `Appended then Ckpt.save ~path:e.ckpt_path st;
        e.appendable <- true;
        List.iter
          (fun (shard, blob) ->
            if shard >= 0 && shard < Array.length e.plan && not (Hashtbl.mem e.blobs shard)
            then begin
              Lease.force_complete e.lease ~shard;
              Hashtbl.replace e.blobs shard blob;
              e.done_samples <- e.done_samples + shard_len e shard
            end)
          st.Ckpt.st_shards;
        attach_quarantines e st.Ckpt.st_quarantined;
        e.audit <-
          Audit.restore (audit_config config ~fp:e.fp) ~nshards:(Array.length e.plan)
            st.Ckpt.st_audit.Ckpt.au_entries;
        Ok st.Ckpt.st_audit.Ckpt.au_banned

let entry_complete e = Lease.finished e.lease && Audit.finished e.audit

(* Persist an accepted shard or an audit pass of [shard]: one delta
   carrying the shard's audit entry, and for an accepted shard its blob,
   quarantine entries and the banned list. The whole snapshot is written
   instead while the file is not appendable, and once the campaign is
   complete, so a finished campaign's file is a bare snapshot. *)
let persist t e ~shard ?accepted ?quarantined ?banned () =
  match Audit.entry e.audit ~shard with
  | Some audit when e.appendable && not (entry_complete e) ->
      e.appendable <- false;
      Ckpt.append ~path:e.ckpt_path ?shard:accepted ?quarantined ?banned audit;
      e.appendable <- true
  | Some _ | None -> save_ckpt t e

(* Drop every accepted-but-unvindicated shard [worker] produced in [e]:
   the quarantine path, and its crash-recovery replay. Returns how many
   shards were invalidated. A delta cannot drop a shard, so the next
   write after any drop is a whole snapshot. *)
let invalidate_victims_entry e ~worker =
  let victims = Audit.victims e.audit ~worker in
  if victims <> [] then e.appendable <- false;
  List.iter
    (fun shard ->
      if Hashtbl.mem e.blobs shard then begin
        Hashtbl.remove e.blobs shard;
        Hashtbl.remove e.quarantines shard;
        e.done_samples <- e.done_samples - shard_len e shard
      end;
      Audit.invalidate e.audit ~shard;
      Lease.reopen e.lease ~shard)
    victims;
  List.length victims

(* Rebuild the queue from the replayed log records, then reattach each
   campaign's checkpoint. Runs before the log is compacted, so it only
   touches the entry tables. An unreadable checkpoint re-runs its
   campaign from scratch. *)
let recover ~config ~dir ~entries records =
  let order = ref [] in
  let banned = ref [] in
  List.iter
    (fun payload ->
      match parse_record payload with
      | None -> ()
      | Some (Op_quarantine worker) ->
          if not (List.mem worker !banned) then banned := worker :: !banned
      | Some (Op_submit spec) -> (
          match spec_valid spec with
          | Error _ -> ()
          | Ok () -> (
              let fp = Protocol.spec_fingerprint spec in
              match Hashtbl.find_opt entries fp with
              | Some e ->
                  (* Revival after a cancel; a repeated submit of a
                     live campaign changes nothing. *)
                  if e.phase = Cancelled then e.phase <- Active
              | None ->
                  let e = make_entry config ~dir spec in
                  Hashtbl.replace entries fp e;
                  order := fp :: !order))
      | Some (Op_finished (fp, elapsed)) -> (
          match Hashtbl.find_opt entries fp with
          | Some e ->
              e.phase <- Finished;
              e.elapsed_s <- elapsed
          | None -> ())
      | Some (Op_parked (fp, reason)) -> (
          match Hashtbl.find_opt entries fp with
          | Some e -> if e.phase <> Finished then e.phase <- Parked reason
          | None -> ())
      | Some (Op_cancelled fp) -> (
          match Hashtbl.find_opt entries fp with
          | Some e -> if e.phase <> Finished then e.phase <- Cancelled
          | None -> ()))
    records;
  let order = List.rev !order in
  (* Reconcile phases against the evidence: a complete checkpoint
     finishes the campaign even if the crash beat the "finished"
     record, and a "finished" record without the shards to back it
     re-queues the campaign (re-running is free and bit-exact). *)
  List.iter
    (fun fp ->
      match Hashtbl.find_opt entries fp with
      | None -> ()
      | Some e -> (
          ignore (attach_ckpt ~config e : (string list, checkpoint_error) result);
          (* The quarantine record is durable before the victims'
             checkpoints are rewritten, so replay the invalidation — a
             no-op when the crash came after it finished. *)
          List.iter
            (fun worker ->
              if not (entry_complete e) || e.phase <> Finished then
                ignore (invalidate_victims_entry e ~worker : int))
            !banned;
          match e.phase with
          | Finished -> if not (entry_complete e) then e.phase <- Active
          | Active -> if entry_complete e then e.phase <- Finished
          | Parked _ -> if entry_complete e then e.phase <- Finished
          | Cancelled -> ()))
    order;
  (order, !banned)

let records_of_state ~entries ~banned order =
  List.concat_map
    (fun fp ->
      match Hashtbl.find_opt entries fp with
      | None -> []
      | Some e -> (
          let base = rec_submit e.spec in
          match e.phase with
          | Active -> [ base ]
          | Finished -> [ base; rec_finished e.fp e.elapsed_s ]
          | Parked reason -> [ base; rec_parked e.fp reason ]
          | Cancelled -> [ base; rec_cancelled e.fp ]))
    order
  @ List.rev_map rec_quarantine banned

let create ?(obs = Obs.disabled) config ~dir ~now =
  if config.ttl_s <= 0. then invalid_arg "Sched.create: non-positive ttl";
  if config.audit_rate < 0. || config.audit_rate > 1. then
    invalid_arg "Sched.create: audit_rate outside [0,1]";
  if config.speculate_factor < 0. then invalid_arg "Sched.create: negative speculate_factor";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Starting empty on a queue that cannot be replayed would orphan every
     checkpoint under campaigns/. The snapshot is written to a .tmp,
     fsynced and renamed, so a crash cannot damage it. *)
  let refuse why = failwith (Printf.sprintf "state directory %s: %s" dir why) in
  if Sys.file_exists (Filename.concat dir "wal") then
    refuse
      "its wal/ queue is of an older layout, which this version does not read (finish its \
       campaigns with the faultmc that wrote it)";
  let queue = Filename.concat dir "queue" in
  let records, torn =
    if not (Sys.file_exists queue) then ([], 0)
    else
      match read_queue ~path:queue with
      | Ok r -> r
      | Error m -> refuse ("damaged queue log: " ^ m)
  in
  let mx = mx_create obs in
  cadd mx.wal_records (float_of_int (List.length records));
  cadd mx.wal_torn (float_of_int torn);
  let entries = Hashtbl.create 16 in
  let order, banned = recover ~config ~dir ~entries records in
  let recovered = Hashtbl.length entries in
  if recovered > 0 then cadd mx.recoveries (float_of_int recovered);
  (* Compacting here also drops any damaged tail: nothing is appended
     after one, and the next replay reads a minimal log. *)
  write_queue ~path:queue (records_of_state ~entries ~banned order);
  let t =
    {
      config;
      dir;
      queue;
      torn_at_start = torn;
      entries;
      order;
      rotation = 0;
      rate = Rate.create ~now ();
      draining = false;
      last_activity = now;
      banned;
      mismatches = Hashtbl.create 8;
      health = Hashtbl.create 8;
      shard_ewma = None;
      mx;
    }
  in
  gset t.mx.audit_quarantined (List.length banned);
  refresh_gauges t;
  t

(* -- phase transitions --------------------------------------------------- *)

let finalize t e ~now =
  (* A campaign is not finished until every pending audit drained: a
     report served before its audits settle could carry a lie. *)
  if e.phase <> Finished && entry_complete e then begin
    e.phase <- Finished;
    e.elapsed_s <- (match e.started_at with Some s -> now -. s | None -> 0.);
    queue_append t (rec_finished e.fp e.elapsed_s);
    cinc t.mx.finished;
    refresh_gauges t
  end

(* Fleet-wide quarantine: record durably, trip the worker's breaker,
   then invalidate every unvindicated shard the liar produced in any
   still-active campaign so honest workers re-run them. Finished
   campaigns keep their reports — every shard in them was either
   audited or produced before auditing drained, and reopening a served
   report would be worse than the residual risk. *)
let quarantine_worker t ~now worker =
  if worker <> "" && not (is_banned t ~worker) then begin
    t.banned <- worker :: t.banned;
    queue_append t (rec_quarantine worker);
    gset t.mx.audit_quarantined (List.length t.banned);
    let b = breaker_for t worker in
    if Breaker.state b ~now <> Breaker.Open then cinc t.mx.breaker_opened;
    Breaker.trip b ~now;
    gset t.mx.circuit_open (open_breakers t ~now);
    iter_ordered t (fun e ->
        if active e then begin
          let dropped = invalidate_victims_entry e ~worker in
          Lease.release_worker e.lease ~worker;
          if dropped > 0 then begin
            cadd t.mx.audit_invalidated (float_of_int dropped);
            save_ckpt t e
          end
        end);
    refresh_gauges t
  end

let mismatch_strikes = 3

let note_mismatch t ~now worker =
  cinc t.mx.audit_mismatches;
  ignore (note_failure t ~now ~worker : float);
  let strikes = 1 + Option.value (Hashtbl.find_opt t.mismatches worker) ~default:0 in
  Hashtbl.replace t.mismatches worker strikes;
  if strikes >= mismatch_strikes then quarantine_worker t ~now worker

let park t e reason =
  if active e then begin
    e.phase <- Parked reason;
    queue_append t (rec_parked e.fp reason);
    cinc t.mx.parked;
    refresh_gauges t
  end

(* -- submission ---------------------------------------------------------- *)

let position_of t e =
  let rec go n = function
    | [] -> n
    | fp :: rest ->
        if fp = e.fp then n
        else
          go
            (match Hashtbl.find_opt t.entries fp with
            | Some o when active o -> n + 1
            | _ -> n)
            rest
  in
  go 0 t.order

(* A new campaign whose progress file lives at [checkpoint]: resume from
   it, adopting its quarantine list, or refuse it before anything is
   committed. *)
let admit_checkpointed t ~now ~checkpoint e =
  match attach_ckpt ~config:t.config e with
  | Error err -> raise (Bad_checkpoint (checkpoint, err))
  | Ok banned ->
      Hashtbl.replace t.entries e.fp e;
      t.order <- t.order @ [ e.fp ];
      queue_append t (rec_submit e.spec);
      List.iter (quarantine_worker t ~now) banned;
      finalize t e ~now

let submit t ~now ?checkpoint spec =
  t.last_activity <- now;
  match spec_valid spec with
  | Error reason -> `Invalid reason
  | Ok () -> (
      let fp = Protocol.spec_fingerprint spec in
      match Hashtbl.find_opt t.entries fp with
      | Some e -> (
          match e.phase with
          | Finished ->
              cinc t.mx.cache_hits;
              `Cached
          | Cancelled ->
              e.phase <- Active;
              queue_append t (rec_submit e.spec);
              cinc t.mx.submissions;
              refresh_gauges t;
              `Queued (position_of t e)
          | Active | Parked _ -> `Queued (position_of t e))
      | None ->
          let live = List.length (active_entries t) in
          if t.config.queue_depth > 0 && live >= t.config.queue_depth then begin
            cinc t.mx.rejected;
            `Rejected t.config.retry_after_s
          end
          else begin
            let e = make_entry t.config ~dir:t.dir ?checkpoint spec in
            (match checkpoint with
            | Some checkpoint -> admit_checkpointed t ~now ~checkpoint e
            | None ->
                Hashtbl.replace t.entries fp e;
                t.order <- t.order @ [ fp ];
                queue_append t (rec_submit spec));
            cinc t.mx.submissions;
            refresh_gauges t;
            if e.phase = Finished then `Cached else `Queued (position_of t e)
          end)

let cancel t ~fingerprint =
  match Hashtbl.find_opt t.entries fingerprint with
  | None -> `Unknown
  | Some e -> (
      match e.phase with
      | Finished -> `Already_finished
      | Cancelled -> `Cancelled
      | Active | Parked _ ->
          e.phase <- Cancelled;
          queue_append t (rec_cancelled e.fp);
          cinc t.mx.cancelled;
          refresh_gauges t;
          `Cancelled)

let holds t ~fingerprint = Hashtbl.mem t.entries fingerprint

(* -- dispatch ------------------------------------------------------------ *)

(* A heartbeat gap big enough to lose the lease is a health event for
   the worker that was holding it. *)
let expire t e ~now =
  List.iter
    (fun (_, worker) ->
      cinc t.mx.leases_expired;
      ignore (note_failure t ~now ~worker : float))
    (Lease.sweep_expired e.lease ~now)

let sweep t ~now =
  iter_ordered t (fun e ->
      if active e then begin
        expire t e ~now;
        (match (e.started_at, t.config.wall_budget_s) with
        | Some s, budget when budget > 0. && now -. s > budget ->
            park t e
              (Printf.sprintf "wall-clock budget exhausted (%.1fs > %.1fs)" (now -. s) budget)
        | _ -> ());
        if entry_complete e then finalize t e ~now
      end);
  gset t.mx.circuit_open (open_breakers t ~now);
  refresh_gauges t

(* With a single live worker the different-auditor rule would deadlock
   the audit queue, so self-audit is allowed (it still catches
   nondeterminism). *)
let audit_offer t e ~now ~worker ~alone =
  let a =
    Lease.audit e.lease ~now ~worker ~due:(fun shard ->
        Audit.due e.audit ~shard ~worker ~allow_self:alone)
  in
  if a <> None then cinc t.mx.audits;
  a

(* Straggler speculation: duplicate the oldest sole lease once its age
   exceeds [speculate_factor] times the fleet's per-shard EWMA. First
   valid completion wins; the loser fences on its epoch. *)
let speculate_offer t e ~now ~worker =
  match t.shard_ewma with
  | Some ewma when t.config.speculate_factor > 0. ->
      let a =
        Lease.speculate e.lease ~now ~worker ~older_than:(t.config.speculate_factor *. ewma)
      in
      if a <> None then cinc t.mx.audit_speculations;
      a
  | _ -> None

let next_job ?(alone = false) t ~now ~worker ~scope =
  t.last_activity <- now;
  if is_banned t ~worker then `Banned
  else
    let try_entry e =
      if not (active e) then None
      else begin
        expire t e ~now;
        match Lease.acquire e.lease ~now ~worker with
        | `Assign a ->
            if e.started_at = None then e.started_at <- Some now;
            cinc t.mx.leases_issued;
            Some (`Job (e.spec, a))
        | `Finished | `Wait -> (
            match audit_offer t e ~now ~worker ~alone with
            | Some a -> Some (`Job (e.spec, a))
            | None -> (
                match speculate_offer t e ~now ~worker with
                | Some a -> Some (`Job (e.spec, a))
                | None ->
                    if entry_complete e then finalize t e ~now;
                    None))
      end
    in
    if scope = Protocol.pool_fingerprint then begin
      let act = active_entries t in
      let n = List.length act in
      if t.draining then `Drained
      else if n = 0 then `Wait
      else begin
        (* Round-robin across campaigns: start one past the campaign
           that got the previous lease, so one long campaign cannot
           starve the rest of the queue. *)
        let arr = Array.of_list act in
        let start = t.rotation mod n in
        let rec probe i =
          if i = n then `Wait
          else
            let idx = (start + i) mod n in
            match try_entry arr.(idx) with
            | Some job ->
                t.rotation <- idx + 1;
                refresh_gauges t;
                job
            | None -> probe (i + 1)
        in
        probe 0
      end
    end
    else
      let e = Hashtbl.find t.entries scope in
      match e.phase with
      | Finished | Cancelled -> `Drained
      | Parked _ -> `Wait
      (* A drain stops leasing, but the campaign is not over: its
         workers wait, and reconnect to the service that resumes it. *)
      | Active when t.draining -> `Wait
      | Active -> (
          match try_entry e with
          | Some job ->
              refresh_gauges t;
              job
          | None -> if entry_complete e then `Drained else `Wait)

let heartbeat t ~now ~worker ~fingerprint ~shard ~epoch =
  t.last_activity <- now;
  cinc t.mx.heartbeats;
  let live =
    match Hashtbl.find_opt t.entries fingerprint with
    | None -> false
    | Some e -> (
        match e.phase with
        | Active | Parked _ -> Lease.heartbeat e.lease ~now ~worker ~shard ~epoch = `Ok
        | Finished | Cancelled -> false)
  in
  if live then begin
    note_success t ~now ~worker;
    `Ok
  end
  else `Stale

let complete t ~now ~fingerprint ~shard ~epoch ~worker ~digest ~tally ~quarantined =
  t.last_activity <- now;
  match Hashtbl.find_opt t.entries fingerprint with
  | None -> `Unknown
  | Some e -> (
      match e.phase with
      | Cancelled -> `Unknown
      | Finished | Active | Parked _ -> (
          match Ssf.Tally.of_string tally with
          | Error msg ->
              (* Validate before committing: a blob that does not decode
                 must not consume the shard's one accepted completion. *)
              ignore (note_failure t ~now ~worker : float);
              `Invalid msg
          | Ok _ -> (
              let computed = Audit.Check.result_digest ~tally ~quarantined in
              match digest with
              | Some d when d <> computed ->
                  (* The worker's own digest disagrees with its payload:
                     corruption or a clumsy lie. Refuse without consuming
                     the shard's completion and put the lease back. *)
                  note_mismatch t ~now worker;
                  Lease.release e.lease ~worker ~shard ~epoch;
                  `Mismatch
              | _ -> (
                  match Lease.complete e.lease ~worker ~shard ~epoch with
                  | `Accepted { Lease.kind = Lease.Audit; _ } -> (
                      match Audit.complete e.audit ~shard ~worker ~digest:computed with
                      | `Pass ->
                          note_success t ~now ~worker;
                          persist t e ~shard ();
                          if e.phase = Active then finalize t e ~now;
                          `Audited "audit pass"
                      | `Dispute ->
                          cinc t.mx.audit_disputes;
                          `Audited "audit dispute: arbitrating"
                      | `Verdict { Audit.vd_liars; vd_replace } ->
                          if vd_replace then begin
                            (* The accepted primary was the lie; the
                               arbiter's result in hand is the honest one. *)
                            Hashtbl.replace e.blobs shard tally;
                            if quarantined = [] then Hashtbl.remove e.quarantines shard
                            else Hashtbl.replace e.quarantines shard quarantined
                          end;
                          List.iter (quarantine_worker t ~now) vd_liars;
                          if not (List.mem worker vd_liars) then note_success t ~now ~worker;
                          save_ckpt t e;
                          if e.phase = Active then finalize t e ~now;
                          `Audited "audit verdict")
                  | `Accepted l ->
                      Hashtbl.replace e.blobs shard tally;
                      if quarantined = [] then Hashtbl.remove e.quarantines shard
                      else Hashtbl.replace e.quarantines shard quarantined;
                      e.done_samples <- e.done_samples + shard_len e shard;
                      Rate.observe t.rate ~now (float_of_int (shard_len e shard));
                      cinc t.mx.shards_completed;
                      let dt = Float.max 0. (now -. l.Lease.started) in
                      Option.iter (fun h -> Metrics.observe h dt) t.mx.roundtrip;
                      t.shard_ewma <-
                        Some
                          (match t.shard_ewma with
                          | None -> dt
                          | Some old -> (0.7 *. old) +. (0.3 *. dt));
                      note_success t ~now ~worker;
                      ignore (Audit.note_accept e.audit ~shard ~worker ~digest:computed : bool);
                      persist t e ~shard ~accepted:(shard, tally) ~quarantined
                        ~banned:(List.rev t.banned) ();
                      if e.phase = Active then finalize t e ~now;
                      refresh_gauges t;
                      `Accepted
                  | `Stale ->
                      cinc t.mx.stale_results;
                      `Stale
                  | (`Duplicate | `Unknown) as r -> r))))

(* -- reports and status -------------------------------------------------- *)

let report t ~fingerprint =
  match Hashtbl.find_opt t.entries fingerprint with
  | Some e when e.phase = Finished -> Some (sorted_blobs e, sorted_quarantined e, e.elapsed_s)
  | Some _ | None -> None

let status_entry t ~now e =
  let queue_len = List.length (active_entries t) in
  let state, position, detail =
    match e.phase with
    | Finished -> (Protocol.Finished, -1, "")
    | Cancelled -> (Protocol.Cancelled, -1, "")
    | Parked reason -> (Protocol.Parked, -1, reason)
    | Active ->
        let st =
          if e.done_samples > 0 || Lease.in_flight e.lease > 0 then Protocol.Running
          else Protocol.Queued
        in
        (st, position_of t e, "")
  in
  let rate = Rate.per_sec t.rate ~now in
  let eta =
    match e.phase with
    | Finished | Cancelled -> 0.
    | Parked _ -> -1.
    | Active ->
        let own = e.spec.Protocol.sp_samples - e.done_samples in
        (* Everything queued ahead shares the pool, so its backlog is
           in front of ours in expectation. *)
        let ahead =
          List.fold_left
            (fun (acc, seen) fp ->
              if seen || fp = e.fp then (acc, true)
              else
                match Hashtbl.find_opt t.entries fp with
                | Some o when active o ->
                    (acc + (o.spec.Protocol.sp_samples - o.done_samples), false)
                | _ -> (acc, false))
            (0, false) t.order
          |> fst
        in
        (match Rate.eta_s t.rate ~now ~remaining:(own + ahead) with Some s -> s | None -> -1.)
  in
  {
    Protocol.st_fingerprint = e.fp;
    st_state = state;
    st_position = position;
    st_queue_len = queue_len;
    st_samples_done = e.done_samples;
    st_samples_total = e.spec.Protocol.sp_samples;
    st_rate = rate;
    st_eta_s = eta;
    st_detail = detail;
  }

let status t ~now ~fingerprint =
  if fingerprint = "" then
    List.rev
      (List.fold_left
         (fun acc fp ->
           match Hashtbl.find_opt t.entries fp with
           | Some e -> status_entry t ~now e :: acc
           | None -> acc)
         [] t.order)
  else
    match Hashtbl.find_opt t.entries fingerprint with
    | Some e -> [ status_entry t ~now e ]
    | None -> []

type summary = {
  sm_queue_depth : int;
  sm_shards_done : int;
  sm_shards_total : int;
  sm_in_flight : int;
  sm_audits_pending : int;
  sm_breakers_open : int;
  sm_banned : int;
  sm_wal_torn : int;
}

let summary t ~now =
  let sum f = Hashtbl.fold (fun _ e n -> n + f e) t.entries 0 in
  {
    sm_queue_depth = List.length (active_entries t);
    sm_shards_done = sum (fun e -> Lease.completed e.lease);
    sm_shards_total = sum (fun e -> Lease.total e.lease);
    sm_in_flight = List.fold_left (fun n e -> n + Lease.in_flight e.lease) 0 (active_entries t);
    sm_audits_pending = sum (fun e -> Audit.pending e.audit);
    sm_breakers_open = open_breakers t ~now;
    sm_banned = List.length t.banned;
    sm_wal_torn = t.torn_at_start;
  }

type worker_health = { wh_breaker : Breaker.state; wh_banned : bool; wh_mismatches : int }

let worker_health t ~now =
  Hashtbl.fold
    (fun w b acc ->
      ( w,
        {
          wh_breaker = Breaker.state b ~now;
          wh_banned = is_banned t ~worker:w;
          wh_mismatches = Option.value (Hashtbl.find_opt t.mismatches w) ~default:0;
        } )
      :: acc)
    t.health []

(* -- lifecycle ----------------------------------------------------------- *)

let drain t = t.draining <- true
let draining t = t.draining
let in_flight t = List.fold_left (fun n e -> n + Lease.in_flight e.lease) 0 (active_entries t)
let idle t = active_entries t = []
let last_activity t = t.last_activity

(* Rewrite the log as a bare snapshot of the final state: the next
   startup reads no delta. *)
let shutdown t =
  write_queue ~path:t.queue (records_of_state ~entries:t.entries ~banned:t.banned t.order)
