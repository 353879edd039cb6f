(* Tests for the campaign service: the queue log's compaction, torn
   tail and refused snapshots, admission control and cancellation,
   report caching, straggler speculation, the rule that a lease answers
   only its holder, kill -9 recovery (queue log + per-campaign
   checkpoints) with bit-identical merged reports, a loopback service
   driving a shared pool worker over a Unix socket through submit /
   fetch / cached resubmit / drain, self-audit by a lone worker, and
   the pinned-campaign ([faultmc serve]) rules: the linger exit, a
   drain and restart in mid-campaign, refused foreign submissions,
   unknown fingerprints and bad checkpoints. *)

module Programs = Fmc_isa.Programs
module Sched = Fmc_sched.Sched
module Service = Fmc_sched.Service
open Fmc
open Fmc_dist

let ctx = lazy (Experiments.context ())
let engine () = Experiments.engine_for (Lazy.force ctx) Programs.illegal_write

let prepare strategy =
  let e = engine () in
  Sampler.prepare ~static_vuln:(Engine.static_vulnerable e) strategy
    (Experiments.default_attack (Lazy.force ctx))
    (Experiments.precharac (Lazy.force ctx))
    ~placement:(Engine.placement e)

(* A worker's resolver that hands every job this process's engine and
   prepared sampler under the default fault model. *)
let local e prep (_ : Protocol.spec) = Ok (e, prep, Ssf.disc_transient)

let temp_dir () =
  let path = Filename.temp_file "fmc-sched" ".dir" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let spec ?(samples = 40) ?(seed = 7) ?(shard_size = 20) ?(model = "disc-transient") () =
  {
    Protocol.sp_benchmark = "illegal-write";
    sp_strategy = "mixed";
    sp_samples = samples;
    sp_seed = seed;
    sp_shard_size = shard_size;
    sp_sample_budget = None;
    sp_fault_model = model;
  }

let metric reg name =
  match Fmc_obs.Metrics.find (Fmc_obs.Metrics.snapshot reg) name with
  | Some (Fmc_obs.Metrics.Counter v) -> v
  | Some (Fmc_obs.Metrics.Gauge v) -> v
  | _ -> Alcotest.failf "missing metric %s" name

(* A leased job's result on the local engine: its tally blob and
   quarantine entries. *)
let shard_result e prep (sp : Protocol.spec) (a : Lease.assignment) =
  let sh =
    Campaign.run_shard e prep ~seed:sp.Protocol.sp_seed ~shard:a.Lease.shard ~start:a.Lease.start
      ~len:a.Lease.len
  in
  (Ssf.Tally.to_string sh.Campaign.sh_snapshot, sh.Campaign.sh_quarantined)

(* Run one leased job on the local engine and feed the result back. *)
let run_job ?(worker = "pump") sched ~now e prep (sp : Protocol.spec) (a : Lease.assignment) =
  let tally, quarantined = shard_result e prep sp a in
  match
    Sched.complete sched ~now
      ~fingerprint:(Protocol.spec_fingerprint sp)
      ~shard:a.Lease.shard ~epoch:a.Lease.epoch ~worker ~digest:None ~tally ~quarantined
  with
  | `Accepted | `Audited _ -> ()
  | `Duplicate | `Stale | `Unknown | `Invalid _ | `Mismatch ->
      Alcotest.fail "completion not accepted"

(* Pump [scope] until it has nothing leasable; returns jobs served. *)
let pump sched ~now e prep ~scope =
  let served = ref 0 in
  let rec go () =
    match Sched.next_job sched ~now ~worker:"pump" ~scope with
    | `Job (sp, a) ->
        incr served;
        if !served > 100 then Alcotest.fail "pump runaway";
        run_job sched ~now e prep sp a;
        go ()
    | `Wait | `Drained -> ()
    | `Banned -> Alcotest.fail "pump: banned"
  in
  go ();
  !served

let merged_json strategy blobs =
  match Merge.report_of_blobs ~strategy blobs with
  | Ok r -> Export.report_json r
  | Error msg -> Alcotest.failf "merge failed: %s" msg

let reference_json e prep (sp : Protocol.spec) =
  let result =
    Campaign.estimate_sharded e prep ~samples:sp.Protocol.sp_samples ~seed:sp.Protocol.sp_seed
      ~shard_size:sp.Protocol.sp_shard_size
  in
  Export.report_json result.Campaign.report

(* ------------------------------------------------------------------ *)
(* The queue log *)

let queue_log dir = Filename.concat dir "queue"
let file_bytes path = In_channel.with_open_bin path In_channel.input_all
let write_bytes path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let change_byte path i =
  let b = Bytes.of_string (file_bytes path) in
  Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
  write_bytes path (Bytes.to_string b)

(* The deltas appended after the log's snapshot. *)
let queue_deltas dir =
  String.split_on_char '\n' (file_bytes (queue_log dir))
  |> List.filter (String.starts_with ~prefix:"delta ")
  |> List.length

let submit_all sched ~now specs =
  List.iter
    (fun s -> match Sched.submit sched ~now s with `Queued _ -> () | _ -> Alcotest.fail "submit")
    specs

(* Every campaign's fingerprint and state, in submission order. *)
let states sched ~now =
  List.map
    (fun st -> (st.Protocol.st_fingerprint, st.Protocol.st_state))
    (Sched.status sched ~now ~fingerprint:"")

(* Reopen [dir]: the scheduler, and the records it replayed and the
   damaged tails it dropped. *)
let reopen dir ~now =
  let reg = Fmc_obs.Metrics.create () in
  let obs = Fmc_obs.Obs.create ~metrics:reg () in
  let sched = Sched.create ~obs Sched.default_config ~dir ~now in
  (sched, metric reg "fmc_sched_wal_records_total", metric reg "fmc_sched_wal_torn_records_total")

let test_queue_roundtrip () =
  with_dir @@ fun dir ->
  let now = 10. in
  let sched = Sched.create Sched.default_config ~dir ~now in
  Alcotest.(check int) "a fresh log has no delta" 0 (queue_deltas dir);
  let s2 = spec ~seed:9 () in
  submit_all sched ~now [ spec ~seed:5 (); s2; spec ~seed:13 () ];
  (match Sched.cancel sched ~fingerprint:(Protocol.spec_fingerprint s2) with
  | `Cancelled -> ()
  | _ -> Alcotest.fail "cancel");
  Alcotest.(check int) "three submits and a cancel append four deltas" 4 (queue_deltas dir);
  let before = states sched ~now in
  Sched.shutdown sched;
  Alcotest.(check int) "shutdown leaves a bare snapshot" 0 (queue_deltas dir);
  Alcotest.(check string) "header" "faultmc-queue 1"
    (List.hd (String.split_on_char '\n' (file_bytes (queue_log dir))));
  let sched2, records, torn = reopen dir ~now in
  Alcotest.(check bool) "same campaigns in the same states" true (states sched2 ~now = before);
  Alcotest.(check (float 0.)) "three submits and a cancel replayed" 4. records;
  Alcotest.(check (float 0.)) "nothing torn" 0. torn;
  Sched.shutdown sched2

(* A crash mid-append cuts the last delta short: at every cut inside
   it, that record alone is dropped and counted once. *)
let test_queue_torn_tail () =
  with_dir @@ fun dir ->
  let now = 10. in
  let s1 = spec ~seed:5 () in
  let sched = Sched.create Sched.default_config ~dir ~now in
  submit_all sched ~now [ s1 ];
  let intact = String.length (file_bytes (queue_log dir)) in
  submit_all sched ~now [ spec ~seed:9 () ];
  let whole = file_bytes (queue_log dir) in
  for cut = intact to String.length whole - 1 do
    write_bytes (queue_log dir) (String.sub whole 0 cut);
    let sched, records, torn = reopen dir ~now in
    let at = Printf.sprintf " (cut at byte %d)" cut in
    Alcotest.(check (list string)) ("only the intact submission" ^ at)
      [ Protocol.spec_fingerprint s1 ]
      (List.map fst (states sched ~now));
    Alcotest.(check (float 0.)) ("one record" ^ at) 1. records;
    Alcotest.(check (float 0.)) ("torn" ^ at) (if cut = intact then 0. else 1.) torn
  done

let test_queue_mid_corruption_stops_replay () =
  with_dir @@ fun dir ->
  let now = 10. in
  let s1 = spec ~seed:5 () in
  let sched = Sched.create Sched.default_config ~dir ~now in
  submit_all sched ~now [ s1 ];
  let second = String.length (file_bytes (queue_log dir)) in
  submit_all sched ~now [ spec ~seed:9 (); spec ~seed:13 () ];
  (* Change a byte inside the second delta's body: its CRC no longer
     checks out, and the intact third delta must not be applied without
     it. *)
  change_byte (queue_log dir) (second + 30);
  let sched2, records, torn = reopen dir ~now in
  Alcotest.(check (list string)) "only the first campaign survives"
    [ Protocol.spec_fingerprint s1 ]
    (List.map fst (states sched2 ~now));
  Alcotest.(check (float 0.)) "one record" 1. records;
  Alcotest.(check (float 0.)) "tear counted" 1. torn;
  Sched.shutdown sched2

let expect_refused dir what =
  match Sched.create Sched.default_config ~dir ~now:10. with
  | _ -> Alcotest.failf "%s must be refused" what
  | exception Failure msg ->
      if not (String.starts_with ~prefix:("state directory " ^ dir ^ ": ") msg) then
        Alcotest.failf "%s: %S does not name %s" what msg dir

(* The snapshot is written to a .tmp, fsynced and renamed, so no crash
   damages it: one that does not check out is refused, not replayed as
   an empty queue that would orphan every checkpoint. *)
let test_damaged_snapshot_refused () =
  with_dir @@ fun dir ->
  let now = 10. in
  let sched = Sched.create Sched.default_config ~dir ~now in
  submit_all sched ~now [ spec ~seed:5 (); spec ~seed:9 () ];
  Sched.shutdown sched;
  let snapshot = file_bytes (queue_log dir) in
  change_byte (queue_log dir) (String.length snapshot / 2);
  expect_refused dir "a changed snapshot byte";
  write_bytes (queue_log dir) (String.sub snapshot 0 (String.length snapshot - 5));
  expect_refused dir "a cut snapshot"

let test_old_layout_refused () =
  with_dir @@ fun dir ->
  Unix.mkdir (Filename.concat dir "wal") 0o755;
  expect_refused dir "a wal/ directory";
  Alcotest.(check bool) "no queue log written" false (Sys.file_exists (queue_log dir))

(* ------------------------------------------------------------------ *)
(* Scheduler state machine *)

let test_admission_cancel_cache () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let now = 1000. in
  let config = { Sched.default_config with queue_depth = 2 } in
  let sched = Sched.create config ~dir ~now in
  let s1 = spec ~seed:5 () and s2 = spec ~seed:9 () and s3 = spec ~seed:13 () in
  (match Sched.submit sched ~now s1 with
  | `Queued 0 -> ()
  | _ -> Alcotest.fail "first submission should queue at 0");
  (match Sched.submit sched ~now s2 with
  | `Queued 1 -> ()
  | _ -> Alcotest.fail "second submission should queue at 1");
  (* Queue full: typed shed with the configured retry hint. *)
  (match Sched.submit sched ~now s3 with
  | `Rejected retry -> Alcotest.(check (float 0.)) "retry hint" 5. retry
  | _ -> Alcotest.fail "over-depth submission must be rejected");
  (* Resubmitting a queued spec is idempotent, not a new slot. *)
  (match Sched.submit sched ~now s1 with
  | `Queued 0 -> ()
  | _ -> Alcotest.fail "duplicate submission should report its position");
  (match Sched.submit sched ~now { s1 with Protocol.sp_samples = 0 } with
  | `Invalid _ -> ()
  | _ -> Alcotest.fail "non-positive samples must be invalid");
  (* Cancelling frees the admission slot. *)
  (match Sched.cancel sched ~fingerprint:(Protocol.spec_fingerprint s2) with
  | `Cancelled -> ()
  | _ -> Alcotest.fail "cancel of a queued campaign");
  (match Sched.cancel sched ~fingerprint:"no-such" with
  | `Unknown -> ()
  | _ -> Alcotest.fail "cancel of an unknown fingerprint");
  (match Sched.submit sched ~now s3 with
  | `Queued _ -> ()
  | _ -> Alcotest.fail "cancellation must free the queue slot");
  (* Finish s1 via its own scope; its report lands in the cache. *)
  let fp1 = Protocol.spec_fingerprint s1 in
  let served = pump sched ~now e prep ~scope:fp1 in
  Alcotest.(check int) "s1 shard count" 2 served;
  (match Sched.report sched ~fingerprint:fp1 with
  | Some (blobs, quarantined, _) ->
      Alcotest.(check int) "blobs" 2 (List.length blobs);
      Alcotest.(check int) "quarantined" 0 (List.length quarantined);
      Alcotest.(check string) "bit-identical to the sharded reference" (reference_json e prep s1)
        (merged_json "mixed" blobs)
  | None -> Alcotest.fail "finished campaign must have a report");
  (match Sched.submit sched ~now s1 with
  | `Cached -> ()
  | _ -> Alcotest.fail "resubmission of a finished campaign must hit the cache");
  (match Sched.cancel sched ~fingerprint:fp1 with
  | `Already_finished -> ()
  | _ -> Alcotest.fail "finished campaigns cannot be cancelled");
  (* Status: submission order, with progress on the finished entry. *)
  let entries = Sched.status sched ~now ~fingerprint:"" in
  Alcotest.(check int) "three entries (cancelled s2 included)" 3 (List.length entries);
  let st1 = List.find (fun e -> e.Protocol.st_fingerprint = fp1) entries in
  Alcotest.(check bool) "s1 finished" true (st1.Protocol.st_state = Protocol.Finished);
  Alcotest.(check int) "s1 samples done" 40 st1.Protocol.st_samples_done;
  Sched.shutdown sched

(* A shard leased for longer than [speculate_factor] x the shard EWMA is
   duplicated onto an idle worker; the first completion wins and the
   straggler's is fenced. *)
let test_straggler_speculation () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let reg = Fmc_obs.Metrics.create () in
  let obs = Fmc_obs.Obs.create ~metrics:reg () in
  let config = { Sched.default_config with Sched.speculate_factor = 2.; ttl_s = 100. } in
  let sched = Sched.create ~obs config ~dir ~now:0. in
  let s = spec ~samples:60 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  (match Sched.submit sched ~now:0. s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  let lease ~now worker =
    match Sched.next_job sched ~now ~worker ~scope:fp with
    | `Job (_, a) -> a
    | _ -> Alcotest.failf "%s expected a lease at %g" worker now
  in
  let finish ~now worker (a : Lease.assignment) =
    let sh =
      Campaign.run_shard e prep ~seed:s.Protocol.sp_seed ~shard:a.Lease.shard
        ~start:a.Lease.start ~len:a.Lease.len
    in
    Sched.complete sched ~now ~fingerprint:fp ~shard:a.Lease.shard ~epoch:a.Lease.epoch ~worker
      ~digest:None
      ~tally:(Ssf.Tally.to_string sh.Campaign.sh_snapshot)
      ~quarantined:sh.Campaign.sh_quarantined
  in
  let accepted what = function `Accepted -> () | _ -> Alcotest.failf "%s not accepted" what in
  (* Two shards take 1 s each, so the EWMA reads 1 s; the third is the
     straggler, leased at 1 s. *)
  accepted "shard 0" (finish ~now:1. "slow" (lease ~now:0. "slow"));
  let straggler = lease ~now:1. "slow" in
  accepted "shard 2" (finish ~now:2. "fast" (lease ~now:1. "fast"));
  (match Sched.next_job sched ~now:2.5 ~worker:"fast" ~scope:fp with
  | `Wait -> ()
  | _ -> Alcotest.fail "a lease 1.5 s old is under 2 x the EWMA: nothing to duplicate");
  let dup = lease ~now:3.5 "fast" in
  Alcotest.(check int) "the straggler's shard is duplicated" straggler.Lease.shard dup.Lease.shard;
  Alcotest.(check bool) "under a fresh epoch" true (dup.Lease.epoch > straggler.Lease.epoch);
  Alcotest.(check (float 0.)) "speculation counted" 1.
    (metric reg "fmc_audit_speculations_total");
  accepted "the duplicate" (finish ~now:4. "fast" dup);
  (match finish ~now:5. "slow" straggler with
  | `Stale -> ()
  | _ -> Alcotest.fail "the straggler's late result must be fenced");
  Alcotest.(check (float 0.)) "stale result counted" 1.
    (metric reg "fmc_dist_stale_results_total");
  (* Round trips of 1 s, 1 s and the duplicate's own 0.5 s. *)
  (match Fmc_obs.Metrics.find (Fmc_obs.Metrics.snapshot reg) "fmc_dist_shard_roundtrip_seconds" with
  | Some (Fmc_obs.Metrics.Histo h) ->
      Alcotest.(check (float 1e-9)) "round trips timed from the winning lease" 2.5
        h.Fmc_obs.Metrics.sum
  | _ -> Alcotest.fail "missing round-trip histogram");
  (match Sched.report sched ~fingerprint:fp with
  | Some (blobs, _, _) ->
      Alcotest.(check string) "report bit-identical" (reference_json e prep s)
        (merged_json "mixed" blobs)
  | None -> Alcotest.fail "campaign must be finished");
  Sched.shutdown sched

(* Once the oldest straggler has its duplicate, the next idle worker
   duplicates the next straggler. *)
let test_speculation_duplicates_every_straggler () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let reg = Fmc_obs.Metrics.create () in
  let obs = Fmc_obs.Obs.create ~metrics:reg () in
  let config = { Sched.default_config with Sched.speculate_factor = 2.; ttl_s = 100. } in
  let sched = Sched.create ~obs config ~dir ~now:0. in
  let s = spec ~samples:60 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  (match Sched.submit sched ~now:0. s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  let ask ~now worker =
    match Sched.next_job sched ~now ~worker ~scope:fp with
    | `Job (_, a) -> Some a.Lease.shard
    | _ -> None
  in
  (* Shard 0 takes 1 s, so the EWMA reads 1 s. *)
  (match Sched.next_job sched ~now:0. ~worker:"a" ~scope:fp with
  | `Job (sp, a) -> run_job ~worker:"a" sched ~now:1. e prep sp a
  | _ -> Alcotest.fail "lease shard 0");
  Alcotest.(check (option int)) "shard 1 leased at 1.0 s" (Some 1) (ask ~now:1.0 "a");
  Alcotest.(check (option int)) "shard 2 leased at 1.2 s" (Some 2) (ask ~now:1.2 "b");
  Alcotest.(check (option int)) "the oldest straggler first" (Some 1) (ask ~now:5. "c");
  Alcotest.(check (option int)) "then the other straggler" (Some 2) (ask ~now:5. "d");
  Alcotest.(check (option int)) "one duplicate each" None (ask ~now:6. "e");
  Alcotest.(check (float 0.)) "both speculations counted" 2.
    (metric reg "fmc_audit_speculations_total");
  Sched.shutdown sched

(* An audit lease that misses its heartbeats expires like a first lease:
   counted, and charged to its holder's breaker. *)
let test_audit_lease_expiry_charged () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let reg = Fmc_obs.Metrics.create () in
  let obs = Fmc_obs.Obs.create ~metrics:reg () in
  let config =
    {
      Sched.default_config with
      Sched.audit_rate = 1.0;
      ttl_s = 10.;
      breaker = { Breaker.failure_threshold = 1; cooldown_s = 60. };
    }
  in
  let sched = Sched.create ~obs config ~dir ~now:0. in
  let s = spec () in
  let fp = Protocol.spec_fingerprint s in
  (match Sched.submit sched ~now:0. s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  let job ~now worker =
    match Sched.next_job sched ~now ~worker ~scope:fp with
    | `Job (sp, a) -> (sp, a)
    | _ -> Alcotest.failf "%s expected a lease" worker
  in
  let sp, a = job ~now:0. "alice" in
  run_job ~worker:"alice" sched ~now:1. e prep sp a;
  let _, first = job ~now:1. "alice" in
  let _, audit = job ~now:2. "bob" in
  Alcotest.(check (pair int int)) "alice holds shard 1, bob audits shard 0" (1, 0)
    (first.Lease.shard, audit.Lease.shard);
  Sched.sweep sched ~now:20.;
  Alcotest.(check (float 0.)) "both leases expired" 2. (metric reg "fmc_dist_leases_expired_total");
  Alcotest.(check (pair bool bool)) "both holders charged" (false, false)
    (Sched.healthy sched ~now:20. ~worker:"alice", Sched.healthy sched ~now:20. ~worker:"bob");
  Sched.shutdown sched

(* A worker quarantined while it holds an audit lease loses it at once:
   an honest worker is offered that audit without waiting out the TTL. *)
let test_quarantine_frees_audit_leases () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let config = { Sched.default_config with Sched.audit_rate = 1.0; ttl_s = 30. } in
  let sched = Sched.create config ~dir ~now:0. in
  let s = spec ~samples:60 () in
  let fp = Protocol.spec_fingerprint s in
  (match Sched.submit sched ~now:0. s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  Alcotest.(check int) "three shards accepted" 3 (pump sched ~now:1. e prep ~scope:fp);
  let take () =
    match Sched.next_job sched ~now:2. ~worker:"mallory" ~scope:fp with
    | `Job (_, a) -> a
    | _ -> Alcotest.fail "mallory expected an audit lease"
  in
  Alcotest.(check int) "mallory holds shard 0's audit" 0 (take ()).Lease.shard;
  (* Three forged digests on shard 1's audit quarantine mallory. *)
  for _ = 1 to 3 do
    let a = take () in
    let sh =
      Campaign.run_shard e prep ~seed:s.Protocol.sp_seed ~shard:a.Lease.shard ~start:a.Lease.start
        ~len:a.Lease.len
    in
    match
      Sched.complete sched ~now:2. ~fingerprint:fp ~shard:a.Lease.shard ~epoch:a.Lease.epoch
        ~worker:"mallory" ~digest:(Some "forged")
        ~tally:(Ssf.Tally.to_string sh.Campaign.sh_snapshot)
        ~quarantined:sh.Campaign.sh_quarantined
    with
    | `Mismatch -> ()
    | _ -> Alcotest.fail "a forged digest must be refused"
  done;
  Alcotest.(check bool) "mallory quarantined" true (Sched.is_banned sched ~worker:"mallory");
  let audited = ref [] in
  let rec drain () =
    match Sched.next_job sched ~now:3. ~worker:"bob" ~scope:fp with
    | `Job (sp, a) ->
        audited := a.Lease.shard :: !audited;
        run_job ~worker:"bob" sched ~now:3. e prep sp a;
        drain ()
    | `Drained -> ()
    | `Wait -> Alcotest.failf "bob waits after auditing [%s]"
                 (String.concat ";" (List.rev_map string_of_int !audited))
    | `Banned -> Alcotest.fail "bob banned"
  in
  drain ();
  Alcotest.(check (list int)) "bob audits every shard" [ 0; 1; 2 ] (List.sort compare !audited);
  (match Sched.report sched ~fingerprint:fp with
  | Some (blobs, _, _) ->
      Alcotest.(check string) "report bit-identical" (reference_json e prep s)
        (merged_json "mixed" blobs)
  | None -> Alcotest.fail "campaign must be finished");
  Sched.shutdown sched

(* Flip the last digit of the tally's first line ("samples %d"): the
   blob still decodes, but its digest moves — a consistent lie. *)
let mutate_tally blob =
  let eol = String.index blob '\n' in
  let b = Bytes.of_string blob in
  Bytes.set b (eol - 1) (if Bytes.get b (eol - 1) = '0' then '1' else '0');
  Bytes.to_string b

(* A lease answers only its holder. A liar whose lie was accepted
   cannot settle the audit of its own shard by completing its auditor's
   lease with the same lie: that completion is stale, the auditor's
   honest result opens a dispute, a third worker arbitrates, and the
   liar is quarantined with the report equal to the reference. *)
let test_liar_cannot_complete_its_audit () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let config = { Sched.default_config with Sched.audit_rate = 1.0 } in
  let sched = Sched.create config ~dir ~now:0. in
  let s = spec ~samples:20 () in
  let fp = Protocol.spec_fingerprint s in
  (match Sched.submit sched ~now:0. s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  let lease ~now worker =
    match Sched.next_job sched ~now ~worker ~scope:fp with
    | `Job (_, a) -> a
    | _ -> Alcotest.failf "%s expected a lease" worker
  in
  let sh = Campaign.run_shard e prep ~seed:s.Protocol.sp_seed ~shard:0 ~start:0 ~len:20 in
  let quarantined = sh.Campaign.sh_quarantined in
  let truth = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
  let lie = mutate_tally truth in
  let complete ~now worker (a : Lease.assignment) tally =
    Sched.complete sched ~now ~fingerprint:fp ~shard:a.Lease.shard ~epoch:a.Lease.epoch ~worker
      ~digest:(Some (Fmc_audit.Audit.Check.result_digest ~tally ~quarantined))
      ~tally ~quarantined
  in
  (match complete ~now:1. "mallory" (lease ~now:0. "mallory") lie with
  | `Accepted -> ()
  | _ -> Alcotest.fail "a consistent lie passes the digest gate");
  let audit = lease ~now:2. "bob" in
  Alcotest.(check (pair int int)) "bob audits shard 0 under epoch 2" (0, 2)
    (audit.Lease.shard, audit.Lease.epoch);
  (match complete ~now:3. "mallory" audit lie with
  | `Stale -> ()
  | `Audited reason -> Alcotest.failf "mallory settled bob's audit lease (%s)" reason
  | _ -> Alcotest.fail "mallory's completion of bob's lease must be stale");
  (match complete ~now:4. "bob" audit truth with
  | `Audited "audit dispute: arbitrating" -> ()
  | _ -> Alcotest.fail "bob's honest result must open a dispute");
  (match complete ~now:6. "carol" (lease ~now:5. "carol") truth with
  | `Audited "audit verdict" -> ()
  | _ -> Alcotest.fail "carol's arbitration must reach a verdict");
  Alcotest.(check bool) "mallory quarantined" true (Sched.is_banned sched ~worker:"mallory");
  (match Sched.report sched ~fingerprint:fp with
  | Some (blobs, _, _) ->
      Alcotest.(check string) "report bit-identical" (reference_json e prep s)
        (merged_json "mixed" blobs)
  | None -> Alcotest.fail "campaign must be finished");
  Sched.shutdown sched

(* A forged completion of another worker's lease is a digest mismatch
   charged to the forger, and the holder keeps its lease: it still
   heartbeats, no one else is offered the shard, and it completes. *)
let test_forged_completion_keeps_holder_lease () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let sched = Sched.create Sched.default_config ~dir ~now:0. in
  let s = spec ~samples:20 () in
  let fp = Protocol.spec_fingerprint s in
  (match Sched.submit sched ~now:0. s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  let a =
    match Sched.next_job sched ~now:0. ~worker:"bob" ~scope:fp with
    | `Job (_, a) -> a
    | _ -> Alcotest.fail "bob expected a lease"
  in
  let sh = Campaign.run_shard e prep ~seed:s.Protocol.sp_seed ~shard:0 ~start:0 ~len:20 in
  let tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
  let quarantined = sh.Campaign.sh_quarantined in
  let complete ~now worker digest =
    Sched.complete sched ~now ~fingerprint:fp ~shard:a.Lease.shard ~epoch:a.Lease.epoch ~worker
      ~digest ~tally ~quarantined
  in
  (match complete ~now:1. "mallory" (Some "forged") with
  | `Mismatch -> ()
  | _ -> Alcotest.fail "a forged digest is a mismatch");
  Alcotest.(check bool) "bob's heartbeat still live" true
    (Sched.heartbeat sched ~now:2. ~worker:"bob" ~fingerprint:fp ~shard:a.Lease.shard
       ~epoch:a.Lease.epoch
    = `Ok);
  (match Sched.next_job sched ~now:2. ~worker:"carol" ~scope:fp with
  | `Wait -> ()
  | _ -> Alcotest.fail "the shard is still bob's");
  (match complete ~now:3. "bob" (Some (Fmc_audit.Audit.Check.result_digest ~tally ~quarantined))
   with
  | `Accepted -> ()
  | _ -> Alcotest.fail "bob's result must be accepted");
  (match Sched.report sched ~fingerprint:fp with
  | Some (blobs, _, _) ->
      Alcotest.(check string) "report bit-identical" (reference_json e prep s)
        (merged_json "mixed" blobs)
  | None -> Alcotest.fail "campaign must be finished");
  Sched.shutdown sched

let test_drain_stops_leasing () =
  with_dir @@ fun dir ->
  let now = 50. in
  let sched = Sched.create Sched.default_config ~dir ~now in
  (match Sched.submit sched ~now (spec ()) with `Queued 0 -> () | _ -> Alcotest.fail "queue");
  Sched.drain sched;
  Alcotest.(check bool) "draining" true (Sched.draining sched);
  (match Sched.next_job sched ~now ~worker:"w" ~scope:Protocol.pool_fingerprint with
  | `Drained -> ()
  | _ -> Alcotest.fail "a draining scheduler must not lease");
  (match Sched.next_job sched ~now ~worker:"w" ~scope:(Protocol.spec_fingerprint (spec ())) with
  | `Wait -> ()
  | _ -> Alcotest.fail "an unfinished campaign's own workers wait through a drain");
  Alcotest.(check int) "nothing in flight" 0 (Sched.in_flight sched);
  Sched.shutdown sched

(* ------------------------------------------------------------------ *)
(* kill -9 recovery *)

let test_kill9_recovery_bit_identical () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let now = 100. in
  let s1 = spec ~samples:60 ~seed:5 () in
  let s2 = spec ~samples:60 ~seed:9 () in
  let s3 = spec ~samples:40 ~seed:13 () in
  let fp1 = Protocol.spec_fingerprint s1
  and fp2 = Protocol.spec_fingerprint s2
  and fp3 = Protocol.spec_fingerprint s3 in
  (* First incarnation: three campaigns; finish s1, run one shard of s2,
     leave s3 untouched — then "crash" (no shutdown, no compaction). *)
  let sched1 = Sched.create Sched.default_config ~dir ~now in
  List.iter
    (fun s ->
      match Sched.submit sched1 ~now s with
      | `Queued _ -> ()
      | _ -> Alcotest.fail "submit")
    [ s1; s2; s3 ];
  Alcotest.(check int) "s1 runs fully" 3 (pump sched1 ~now e prep ~scope:fp1);
  (match Sched.next_job sched1 ~now ~worker:"w" ~scope:fp2 with
  | `Job (sp, a) -> run_job ~worker:"w" sched1 ~now e prep sp a
  | _ -> Alcotest.fail "lease one s2 shard");
  (* sched1 is abandoned here, queue log and all, like a SIGKILL. *)
  let reg = Fmc_obs.Metrics.create () in
  let obs = Fmc_obs.Obs.create ~metrics:reg () in
  let sched2 = Sched.create ~obs Sched.default_config ~dir ~now:(now +. 10.) in
  Alcotest.(check (float 0.)) "recoveries counted" 3. (metric reg "fmc_sched_recoveries_total");
  let now = now +. 20. in
  let state fp =
    match Sched.status sched2 ~now ~fingerprint:fp with
    | [ e ] -> (e.Protocol.st_state, e.Protocol.st_samples_done)
    | _ -> Alcotest.failf "no status for %s" fp
  in
  Alcotest.(check bool) "s1 recovered finished" true (state fp1 = (Protocol.Finished, 60));
  let st2, done2 = state fp2 in
  Alcotest.(check bool) "s2 recovered unfinished" true
    (st2 = Protocol.Queued || st2 = Protocol.Running);
  Alcotest.(check int) "s2 keeps its checkpointed shard" 20 done2;
  Alcotest.(check bool) "s3 recovered queued" true (fst (state fp3) = Protocol.Queued);
  (* Finishing everything takes exactly the shards that were missing:
     two more for s2, two for s3 — recovered work is never re-run. *)
  let served = pump sched2 ~now e prep ~scope:Protocol.pool_fingerprint in
  Alcotest.(check int) "only missing shards re-run" 4 served;
  List.iter
    (fun (fp, s) ->
      match Sched.report sched2 ~fingerprint:fp with
      | Some (blobs, _, _) ->
          Alcotest.(check string)
            ("bit-identical after recovery: " ^ fp)
            (reference_json e prep s) (merged_json "mixed" blobs)
      | None -> Alcotest.failf "campaign %s must be finished" fp)
    [ (fp1, s1); (fp2, s2); (fp3, s3) ];
  Sched.shutdown sched2;
  (* A third incarnation after a clean shutdown: everything is cached. *)
  let sched3 = Sched.create Sched.default_config ~dir ~now in
  (match Sched.submit sched3 ~now s2 with
  | `Cached -> ()
  | _ -> Alcotest.fail "finished campaigns survive a clean restart");
  Sched.shutdown sched3

(* kill -9 with audits in flight: both shards are done but unaudited;
   the recovered scheduler must withhold the report, re-offer the audit
   obligations to a different worker, and serve a bit-identical report
   only once they pass. Also exercises the digest gate: a carried digest
   that disagrees with the payload is a typed [`Mismatch] refusal. *)
let test_kill9_mid_audit_preserves_obligations () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let now = 100. in
  let config = { Sched.default_config with Sched.audit_rate = 1.0 } in
  let s = spec ~samples:40 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  let honest ~tally ~quarantined =
    Some (Fmc_audit.Audit.Check.result_digest ~tally ~quarantined)
  in
  let run_one sched ~worker ~digest_of =
    match Sched.next_job sched ~now ~worker ~scope:fp with
    | `Job (sp, a) ->
        let sh =
          Campaign.run_shard e prep ~seed:sp.Protocol.sp_seed ~shard:a.Lease.shard
            ~start:a.Lease.start ~len:a.Lease.len
        in
        let tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
        let quarantined = sh.Campaign.sh_quarantined in
        Sched.complete sched ~now ~fingerprint:fp ~shard:a.Lease.shard ~epoch:a.Lease.epoch
          ~worker
          ~digest:(digest_of ~tally ~quarantined)
          ~tally ~quarantined
    | `Wait | `Drained | `Banned -> Alcotest.fail "expected a job"
  in
  let sched1 = Sched.create config ~dir ~now in
  (match Sched.submit sched1 ~now s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  (match run_one sched1 ~worker:"alice" ~digest_of:(fun ~tally:_ ~quarantined:_ -> Some "bogus")
   with
  | `Mismatch -> ()
  | _ -> Alcotest.fail "a lying digest must be refused as a mismatch");
  (match run_one sched1 ~worker:"alice" ~digest_of:honest with
  | `Accepted -> ()
  | _ -> Alcotest.fail "honest first shard accepted");
  (match run_one sched1 ~worker:"alice" ~digest_of:honest with
  | `Accepted -> ()
  | _ -> Alcotest.fail "honest second shard accepted");
  Alcotest.(check bool) "report withheld while audits are pending" true
    (Sched.report sched1 ~fingerprint:fp = None);
  (* sched1 is abandoned here — queue log, audit leases and all. *)
  let sched2 = Sched.create config ~dir ~now in
  Alcotest.(check bool) "audit obligations survive kill -9" true
    (Sched.report sched2 ~fingerprint:fp = None);
  (* A different worker drains the re-offered audits; once both pass
     the campaign finalizes and the scope answers [`Drained]. *)
  let audited = ref 0 in
  let rec drain () =
    if !audited > 4 then Alcotest.fail "audit runaway";
    match Sched.next_job sched2 ~now ~worker:"bob" ~scope:fp with
    | `Job (sp, a) -> (
        let sh =
          Campaign.run_shard e prep ~seed:sp.Protocol.sp_seed ~shard:a.Lease.shard
            ~start:a.Lease.start ~len:a.Lease.len
        in
        let tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
        let quarantined = sh.Campaign.sh_quarantined in
        match
          Sched.complete sched2 ~now ~fingerprint:fp ~shard:a.Lease.shard ~epoch:a.Lease.epoch
            ~worker:"bob"
            ~digest:(honest ~tally ~quarantined)
            ~tally ~quarantined
        with
        | `Audited _ ->
            incr audited;
            drain ()
        | _ -> Alcotest.fail "re-execution must land as an audit")
    | `Drained -> ()
    | `Wait | `Banned -> Alcotest.fail "audits must be offered until drained"
  in
  drain ();
  Alcotest.(check int) "both audits re-ran" 2 !audited;
  (match Sched.report sched2 ~fingerprint:fp with
  | Some (blobs, _, _) ->
      Alcotest.(check string) "audited report is bit-identical" (reference_json e prep s)
        (merged_json "mixed" blobs)
  | None -> Alcotest.fail "audited campaign must serve its report");
  Sched.shutdown sched2

let test_torn_submit_record_dropped () =
  with_dir @@ fun dir ->
  let now = 10. in
  let s1 = spec ~seed:5 () and s2 = spec ~seed:9 () in
  let sched1 = Sched.create Sched.default_config ~dir ~now in
  (match Sched.submit sched1 ~now s1 with `Queued 0 -> () | _ -> Alcotest.fail "submit s1");
  (match Sched.submit sched1 ~now s2 with `Queued 1 -> () | _ -> Alcotest.fail "submit s2");
  (* Tear the tail of the live queue log: the s2 submit record is the
     victim, as if the crash hit mid-append. *)
  let fd = Unix.openfile (queue_log dir) [ Unix.O_WRONLY ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (size - 3);
  Unix.close fd;
  let reg = Fmc_obs.Metrics.create () in
  let obs = Fmc_obs.Obs.create ~metrics:reg () in
  let sched2 = Sched.create ~obs Sched.default_config ~dir ~now in
  Alcotest.(check (float 0.)) "torn record counted" 1.
    (metric reg "fmc_sched_wal_torn_records_total");
  Alcotest.(check int) "only the intact submission survives" 1
    (List.length (Sched.status sched2 ~now ~fingerprint:""));
  (match Sched.status sched2 ~now ~fingerprint:(Protocol.spec_fingerprint s1) with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "s1 must survive the tear");
  (* The torn submission was never acknowledged as durable state — the
     client simply submits again. *)
  (match Sched.submit sched2 ~now s2 with
  | `Queued _ -> ()
  | _ -> Alcotest.fail "the torn campaign resubmits cleanly");
  Sched.shutdown sched2

(* Lease one shard of [fp] and complete it; returns the accepted tally
   blob and quarantine entries. *)
let accept_one sched ~now e prep ~fp =
  match Sched.next_job sched ~now ~worker:"pump" ~scope:fp with
  | `Job (sp, a) -> (
      let tally, quarantined = shard_result e prep sp a in
      match
        Sched.complete sched ~now ~fingerprint:fp ~shard:a.Lease.shard ~epoch:a.Lease.epoch
          ~worker:"pump" ~digest:None ~tally ~quarantined
      with
      | `Accepted -> (tally, quarantined)
      | _ -> Alcotest.fail "completion not accepted")
  | `Wait | `Drained | `Banned -> Alcotest.fail "expected a job"

(* The accept path appends. After the accept that creates the checkpoint
   and short of the one that finishes the campaign, each accept leaves
   the previous bytes a prefix of the new ones and adds its blob plus an
   overhead that does not grow with the shards already written. The
   finished file is a bare snapshot, byte for byte what [Ckpt.save]
   writes of it. *)
let test_accept_appends () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let now = 10. in
  let shards = 6 in
  let s = spec ~samples:(20 * shards) ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  let path = Filename.concat dir "campaign.ckpt" in
  let sched = Sched.create Sched.default_config ~dir:(Filename.concat dir "state") ~now in
  (match Sched.submit sched ~now ~checkpoint:path s with
  | `Queued _ -> ()
  | _ -> Alcotest.fail "submit");
  let overheads =
    List.init shards (fun k ->
        let before = if k = 0 then "" else file_bytes path in
        let tally, quarantined = accept_one sched ~now e prep ~fp in
        let after = file_bytes path in
        if k = 0 || k = shards - 1 then None
        else begin
          if not (String.starts_with ~prefix:before after) then
            Alcotest.failf "accept %d rewrote the checkpoint" (k + 1);
          let entries =
            List.fold_left
              (fun n q -> n + String.length (Campaign.quarantine_entry_to_string q) + 1)
              0 quarantined
          in
          Some (String.length after - String.length before - String.length tally - entries)
        end)
    |> List.filter_map Fun.id
  in
  let second = List.hd overheads and last_but_one = List.nth overheads (shards - 3) in
  Alcotest.(check int) "same overhead at the 2nd and the last-but-one accept" second last_but_one;
  Alcotest.(check bool) (Printf.sprintf "bounded overhead (%d bytes)" second) true (second < 200);
  (match Ckpt.read ~path with
  | Ok (st, `Snapshot) ->
      Alcotest.(check int) "every shard" shards (List.length st.Ckpt.st_shards);
      let again = Filename.concat dir "again.ckpt" in
      Ckpt.save ~path:again st;
      Alcotest.(check string) "finished file is Ckpt.save's" (file_bytes again) (file_bytes path)
  | Ok (_, `Appended) -> Alcotest.fail "a finished campaign's checkpoint is a bare snapshot"
  | Error m -> Alcotest.fail m);
  Sched.shutdown sched

(* A torn tail costs only its own shards: the third accept's delta is
   cut mid-record, so recovery brings back two shards; two more are
   accepted, and a second recovery must find all four. Appending after
   the torn bytes would hide them. *)
let test_torn_delta_costs_its_shards () =
  with_dir @@ fun dir ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let now = 10. in
  let s = spec ~samples:100 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  let ckpt () =
    let campaigns = Filename.concat dir "campaigns" in
    match Sys.readdir campaigns with
    | [| f |] -> Filename.concat campaigns f
    | _ -> Alcotest.fail "one campaign checkpoint"
  in
  let size () = (Unix.stat (ckpt ())).Unix.st_size in
  let samples_done sched =
    match Sched.status sched ~now ~fingerprint:fp with
    | [ st ] -> st.Protocol.st_samples_done
    | _ -> Alcotest.fail "no status"
  in
  let accept sched n =
    for _ = 1 to n do
      ignore (accept_one sched ~now e prep ~fp : string * Campaign.quarantine_entry list)
    done
  in
  let sched1 = Sched.create Sched.default_config ~dir ~now in
  (match Sched.submit sched1 ~now s with `Queued 0 -> () | _ -> Alcotest.fail "submit");
  accept sched1 2;
  let intact = size () in
  accept sched1 1;
  (* sched1 is abandoned mid-append, as if killed: half the delta. *)
  Unix.truncate (ckpt ()) (intact + ((size () - intact) / 2));
  let sched2 = Sched.create Sched.default_config ~dir ~now in
  Alcotest.(check int) "the torn shard is not recovered" 40 (samples_done sched2);
  accept sched2 2;
  (* sched2 is abandoned too. *)
  let sched3 = Sched.create Sched.default_config ~dir ~now in
  Alcotest.(check int) "all four accepted shards recovered" 80 (samples_done sched3);
  Alcotest.(check int) "only the missing shard runs" 1 (pump sched3 ~now e prep ~scope:fp);
  (match Sched.report sched3 ~fingerprint:fp with
  | Some (blobs, _, _) ->
      Alcotest.(check string) "bit-identical after a torn tail" (reference_json e prep s)
        (merged_json "mixed" blobs)
  | None -> Alcotest.fail "the campaign must finish");
  Sched.shutdown sched3

(* ------------------------------------------------------------------ *)
(* Loopback service + shared pool worker *)

let test_service_loopback_pool () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let sock_path = Filename.temp_file "fmc-sched" ".sock" in
  Sys.remove sock_path;
  with_dir @@ fun dir ->
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock_path then Sys.remove sock_path)
    (fun () ->
      let addr = Wire.Unix_path sock_path in
      let config =
        {
          (Service.default_config addr) with
          Service.state_dir = Some dir;
          sched = { Sched.default_config with Sched.ttl_s = 5. };
        }
      in
      let reg = Fmc_obs.Metrics.create () in
      let obs = Fmc_obs.Obs.create ~metrics:reg () in
      let control = ref None in
      let outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome := Some (Service.serve ~obs ~on_ready:(fun c -> control := Some c) config))
          ()
      in
      let s1 = spec ~samples:60 ~seed:5 () in
      let fp1 = Protocol.spec_fingerprint s1 in
      let client = Worker.default_config ~addr ~worker_name:"ctl" in
      (* Submit over the wire before any worker exists. *)
      (match Worker.submit client s1 with
      | Ok (Worker.Submit_queued 0) -> ()
      | Ok _ -> Alcotest.fail "expected queued at 0"
      | Error msg -> Alcotest.failf "submit failed: %s" msg);
      (* A shared pool worker drains the queue; it keeps serving until
         the scheduler itself drains. *)
      let accepted = ref 0 in
      let pool =
        Thread.create
          (fun () ->
            let wcfg =
              { (Worker.default_config ~addr ~worker_name:"pool-1") with Worker.retry_delay_s = 0.05 }
            in
            accepted :=
              Worker.run wcfg ~scope:Protocol.pool_fingerprint ~resolve:(local e prep))
          ()
      in
      (* Wait for the report on a campaign-scoped connection; pending
         replies carry the queue entry. *)
      let saw_pending = ref false in
      (match
         Worker.fetch_report ~poll_s:0.05 ~timeout_s:60.
           ~on_pending:(fun _ -> saw_pending := true)
           client ~fingerprint:fp1
       with
      | Error err -> Alcotest.failf "fetch failed: %s" (Worker.fetch_error_message err)
      | Ok (blobs, quarantined, _) ->
          Alcotest.(check int) "quarantined" 0 (List.length quarantined);
          Alcotest.(check string) "wire report bit-identical" (reference_json e prep s1)
            (merged_json "mixed" blobs));
      (* Resubmission of the finished campaign hits the cache. *)
      (match Worker.submit client s1 with
      | Ok Worker.Submit_cached -> ()
      | Ok _ -> Alcotest.fail "resubmission must be cached"
      | Error msg -> Alcotest.failf "resubmit failed: %s" msg);
      (match Worker.sched_status client ~fingerprint:"" with
      | Ok [ st ] ->
          Alcotest.(check bool) "finished over the wire" true
            (st.Protocol.st_state = Protocol.Finished)
      | Ok l -> Alcotest.failf "expected one status entry, got %d" (List.length l)
      | Error msg -> Alcotest.failf "status failed: %s" msg);
      (* Drain: leasing stops, the pool worker is told to exit, the
         service returns. *)
      (match !control with Some c -> c.Service.request_drain () | None -> Alcotest.fail "ready");
      Thread.join pool;
      Alcotest.(check bool) "pool worker completed shards" true (!accepted >= 1);
      Thread.join server;
      (match !outcome with
      | Some { Service.sv_reason = Service.Drained; _ } -> ()
      | Some _ -> Alcotest.fail "expected a drained exit"
      | None -> Alcotest.fail "no outcome");
      ignore !saw_pending)

let with_sock f =
  let path = Filename.temp_file "fmc-serve" ".sock" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path (Wire.Unix_path path))

let wait_until ?(timeout_s = 20.) what cond =
  let t0 = Unix.gettimeofday () in
  while not (cond ()) do
    if Unix.gettimeofday () -. t0 > timeout_s then Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.01
  done

(* Auditing with one pool worker while a client waits for the report:
   the client's connection is not a worker, so the lone worker may
   audit its own shards and the campaign finishes. *)
let test_lone_worker_self_audits () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  with_dir @@ fun dir ->
  with_sock @@ fun _ addr ->
  let config =
    {
      (Service.default_config addr) with
      Service.state_dir = Some dir;
      sched = { Sched.default_config with Sched.ttl_s = 5.; audit_rate = 1. };
    }
  in
  let control = ref None in
  let server =
    Thread.create (fun () -> Service.serve ~on_ready:(fun c -> control := Some c) config) ()
  in
  let s = spec ~samples:40 ~seed:5 () in
  let client = Worker.default_config ~addr ~worker_name:"ctl" in
  (match Worker.submit client s with
  | Ok (Worker.Submit_queued 0) -> ()
  | _ -> Alcotest.fail "submit");
  let waiting = ref false and fetched = ref None in
  let fetcher =
    Thread.create
      (fun () ->
        fetched :=
          Some
            (Worker.fetch_report ~poll_s:0.05 ~poll_cap_s:0.1 ~timeout_s:20.
               ~on_pending:(fun _ -> waiting := true)
               client ~fingerprint:(Protocol.spec_fingerprint s)))
      ()
  in
  (* The client is connected and waiting before the worker arrives. *)
  wait_until "the fetch to be pending" (fun () -> !waiting);
  let pool =
    Thread.create
      (fun () ->
        let wcfg =
          { (Worker.default_config ~addr ~worker_name:"pool-1") with Worker.retry_delay_s = 0.05 }
        in
        ignore (Worker.run wcfg ~scope:Protocol.pool_fingerprint ~resolve:(local e prep) : int))
      ()
  in
  Thread.join fetcher;
  (match !fetched with
  | Some (Ok (blobs, _, _)) ->
      Alcotest.(check string) "audited report bit-identical" (reference_json e prep s)
        (merged_json "mixed" blobs)
  | Some (Error err) -> Alcotest.failf "fetch failed: %s" (Worker.fetch_error_message err)
  | None -> Alcotest.fail "no fetch result");
  (match !control with Some c -> c.Service.request_drain () | None -> Alcotest.fail "ready");
  Thread.join pool;
  Thread.join server

(* ------------------------------------------------------------------ *)
(* The pinned campaign: [faultmc serve] *)

let send conn msg =
  let tag, payload = Protocol.encode_client msg in
  Wire.write_frame conn ~tag payload

let recv conn =
  let tag, payload = Wire.read_frame conn in
  match Protocol.decode_server tag payload with
  | Ok m -> m
  | Error msg -> Alcotest.failf "server sent garbage: %s" msg

let pinned ?checkpoint ?(linger_s = 0.) spec = { Service.spec; checkpoint; linger_s }

(* With --linger 0 the service still waits for a connected client: it
   returns only once that client has fetched the report and left. *)
let test_linger_zero_waits_for_clients () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let s = spec ~samples:40 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  with_sock @@ fun _ addr ->
  let outcome = ref None in
  let server =
    Thread.create
      (fun () -> outcome := Some (Service.serve ~campaign:(pinned s) (Service.default_config addr)))
      ()
  in
  let fd = Wire.connect ~attempts:40 ~delay_s:0.05 addr in
  let conn = Wire.conn fd in
  send conn (Protocol.Hello { version = Protocol.version; worker = "watcher"; fingerprint = fp });
  (match recv conn with Protocol.Welcome _ -> () | _ -> Alcotest.fail "expected welcome");
  let wcfg = { (Worker.default_config ~addr ~worker_name:"w") with Worker.retry_delay_s = 0.05 } in
  Alcotest.(check int) "worker ran every shard" 2 (Worker.run wcfg ~scope:fp ~resolve:(local e prep));
  (* Several ticks after the campaign finished, with the linger long
     gone, the watcher's open connection still holds the service. *)
  Thread.delay 0.8;
  Alcotest.(check bool) "service still up while a client is connected" true (!outcome = None);
  send conn Protocol.Fetch_report;
  (match recv conn with
  | Protocol.Report { shards; _ } ->
      Alcotest.(check string) "fetched report bit-identical" (reference_json e prep s)
        (merged_json "mixed" shards)
  | _ -> Alcotest.fail "expected the report");
  send conn Protocol.Goodbye;
  Wire.close conn;
  Thread.join server;
  match !outcome with
  | Some { Service.sv_reason = Service.Finished; sv_report = Some _ } -> ()
  | _ -> Alcotest.fail "expected a finished exit with the report"

(* A lessee that sleeps through the linger (a worker in reconnect
   back-off) still finds the service up: it is owed its
   [No_work { finished = true }], and only once that is answered does
   the finished campaign's service exit. *)
let test_linger_waits_for_sleeping_lessee () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let s = spec ~samples:40 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  with_sock @@ fun _ addr ->
  let outcome = ref None in
  let server =
    Thread.create
      (fun () ->
        outcome :=
          Some (Service.serve ~campaign:(pinned ~linger_s:0.2 s) (Service.default_config addr)))
      ()
  in
  let hello () =
    let conn = Wire.conn (Wire.connect ~attempts:40 ~delay_s:0.05 addr) in
    send conn (Protocol.Hello { version = Protocol.version; worker = "sleeper"; fingerprint = fp });
    (match recv conn with Protocol.Welcome _ -> () | _ -> Alcotest.fail "expected welcome");
    conn
  in
  (* The sleeper runs one shard, then drops its connection. *)
  let conn = hello () in
  send conn Protocol.Request_shard;
  (match recv conn with
  | Protocol.Job { shard; epoch; start; len; _ } ->
      let sh = Campaign.run_shard e prep ~seed:5 ~shard ~start ~len in
      send conn
        (Protocol.Job_done
           {
             fingerprint = fp;
             shard;
             epoch;
             tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot;
             quarantined = [];
           });
      (match recv conn with
      | Protocol.Ack { accepted = true; _ } -> ()
      | _ -> Alcotest.fail "expected the shard accepted")
  | _ -> Alcotest.fail "expected a job");
  Wire.close conn;
  (* Another worker finishes the campaign and is told so. *)
  let wcfg = { (Worker.default_config ~addr ~worker_name:"w") with Worker.retry_delay_s = 0.05 } in
  Alcotest.(check int) "worker ran the other shard" 1 (Worker.run wcfg ~scope:fp ~resolve:(local e prep));
  (* Five lingers later, with no connection open, the sleeper is still owed. *)
  Thread.delay 1.0;
  Alcotest.(check bool) "service up while the sleeper is owed" true (!outcome = None);
  let conn = hello () in
  send conn Protocol.Request_shard;
  (match recv conn with
  | Protocol.No_work { finished = true } -> ()
  | _ -> Alcotest.fail "expected the campaign finished");
  send conn Protocol.Goodbye;
  Wire.close conn;
  Thread.join server;
  match !outcome with
  | Some { Service.sv_reason = Service.Finished; sv_report = Some (shards, _, _) } ->
      Alcotest.(check string) "report bit-identical" (reference_json e prep s)
        (merged_json "mixed" shards)
  | _ -> Alcotest.fail "expected a finished exit with the report"

(* A drain (what SIGTERM requests) stops a pinned service inside the
   linger of its finished campaign, and the ephemeral state directory is
   removed with it. *)
let test_drain_ends_linger_and_state () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let s = spec ~samples:40 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  with_dir @@ fun tmp ->
  with_sock @@ fun _ addr ->
  let saved_tmp = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  Fun.protect ~finally:(fun () -> Filename.set_temp_dir_name saved_tmp) @@ fun () ->
  let control = ref None and outcome = ref None in
  let server =
    Thread.create
      (fun () ->
        outcome :=
          Some
            (Service.serve
               ~on_ready:(fun c -> control := Some c)
               ~campaign:(pinned ~linger_s:60. s) (Service.default_config addr)))
      ()
  in
  let wcfg = { (Worker.default_config ~addr ~worker_name:"w") with Worker.retry_delay_s = 0.05 } in
  Alcotest.(check int) "worker ran every shard" 2 (Worker.run wcfg ~scope:fp ~resolve:(local e prep));
  Alcotest.(check int) "one ephemeral state directory" 1 (Array.length (Sys.readdir tmp));
  let t0 = Unix.gettimeofday () in
  (match !control with Some c -> c.Service.request_drain () | None -> Alcotest.fail "ready");
  Thread.join server;
  Alcotest.(check bool) "the 60 s linger was cut short" true (Unix.gettimeofday () -. t0 < 5.);
  (match !outcome with
  | Some { Service.sv_reason = Service.Drained; sv_report = Some (shards, _, _) } ->
      Alcotest.(check string) "report bit-identical" (reference_json e prep s)
        (merged_json "mixed" shards)
  | _ -> Alcotest.fail "expected a drained exit with the report");
  Alcotest.(check int) "ephemeral state removed" 0 (Array.length (Sys.readdir tmp))

(* A drain (SIGTERM) in mid-campaign does not send the campaign's
   workers away: they wait while the in-flight shard finishes, then
   reconnect to a [serve] restarted from the checkpoint, which finishes
   the campaign with the same fleet. *)
let test_drain_keeps_workers_for_restart () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let s = spec ~samples:200 ~seed:5 () in
  let fp = Protocol.spec_fingerprint s in
  with_dir @@ fun dir ->
  with_sock @@ fun _ addr ->
  let campaign = pinned ~checkpoint:(Filename.concat dir "campaign.ckpt") s in
  let control = ref None and view = ref None and first = ref None in
  let server =
    Thread.create
      (fun () ->
        first :=
          Some
            (Service.serve
               ~on_ready:(fun c -> control := Some c)
               ~on_view:(fun v -> view := Some v)
               ~campaign (Service.default_config addr)))
      ()
  in
  (* A raw client holds one lease across the drain. *)
  let conn = Wire.conn (Wire.connect ~attempts:40 ~delay_s:0.05 addr) in
  send conn (Protocol.Hello { version = Protocol.version; worker = "holder"; fingerprint = fp });
  (match recv conn with Protocol.Welcome _ -> () | _ -> Alcotest.fail "expected welcome");
  send conn Protocol.Request_shard;
  let shard, epoch, start, len =
    match recv conn with
    | Protocol.Job { shard; epoch; start; len; _ } -> (shard, epoch, start, len)
    | _ -> Alcotest.fail "expected a lease"
  in
  (match !control with Some c -> c.Service.request_drain () | None -> Alcotest.fail "ready");
  let health () = (Option.get !view).Service.vw_health () in
  wait_until "the drain" (fun () -> (health ()).Service.h_draining);
  let returned = ref false and completed = ref 0 in
  let worker =
    Thread.create
      (fun () ->
        let wcfg =
          {
            (Worker.default_config ~addr ~worker_name:"w") with
            Worker.retry_delay_s = 0.05;
            retry = { Worker.base_s = 0.05; cap_s = 0.2; max_attempts = 50; budget_s = 20. };
          }
        in
        completed := Worker.run wcfg ~scope:fp ~resolve:(local e prep);
        returned := true)
      ()
  in
  Thread.delay 0.5;
  Alcotest.(check bool) "the worker waits through the drain" false !returned;
  Alcotest.(check bool) "the in-flight lease holds the service" true (!first = None);
  let sh = Campaign.run_shard e prep ~seed:5 ~shard ~start ~len in
  send conn
    (Protocol.Job_done
       {
         fingerprint = fp;
         shard;
         epoch;
         tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot;
         quarantined = sh.Campaign.sh_quarantined;
       });
  (match recv conn with
  | Protocol.Ack { accepted = true; _ } -> ()
  | _ -> Alcotest.fail "the in-flight shard must still be accepted");
  send conn Protocol.Goodbye;
  Wire.close conn;
  Thread.join server;
  (match !first with
  | Some { Service.sv_reason = Service.Drained; sv_report = None } -> ()
  | _ -> Alcotest.fail "expected a drained exit without a report");
  Alcotest.(check bool) "the worker is still waiting" false !returned;
  let outcome = Service.serve ~campaign (Service.default_config addr) in
  Thread.join worker;
  Alcotest.(check int) "the same worker ran the remaining shards" 9 !completed;
  match outcome with
  | { Service.sv_reason = Service.Finished; sv_report = Some (shards, _, _) } ->
      Alcotest.(check string) "report bit-identical" (reference_json e prep s)
        (merged_json "mixed" shards)
  | _ -> Alcotest.fail "expected the restarted service to finish the campaign"

(* A pinned service holds its one campaign: another campaign's submit
   and a cancel are refused, while resubmitting its own is harmless. *)
let test_pinned_refuses_other_campaigns () =
  with_sock @@ fun _ addr ->
  let s = spec () in
  let control = ref None in
  let server =
    Thread.create
      (fun () ->
        Service.serve
          ~on_ready:(fun c -> control := Some c)
          ~campaign:(pinned s) (Service.default_config addr))
      ()
  in
  let client = Worker.default_config ~addr ~worker_name:"ctl" in
  (match Worker.submit client (spec ~seed:6 ()) with
  | Error reason -> Alcotest.(check string) "submit refused" "serve holds one campaign" reason
  | Ok _ -> Alcotest.fail "another campaign must be refused");
  (match Worker.cancel client ~fingerprint:(Protocol.spec_fingerprint s) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "the pinned campaign cannot be cancelled");
  (match Worker.submit client s with
  | Ok (Worker.Submit_queued 0) -> ()
  | _ -> Alcotest.fail "resubmitting the pinned campaign is a no-op");
  (match !control with Some c -> c.Service.request_drain () | None -> Alcotest.fail "ready");
  Thread.join server

(* A worker whose campaign the service does not hold is refused at
   hello, terminally, instead of entering its reconnect loop. *)
let test_unknown_fingerprint_rejected () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  with_dir @@ fun dir ->
  with_sock @@ fun _ addr ->
  let control = ref None in
  let server =
    Thread.create
      (fun () ->
        Service.serve
          ~on_ready:(fun c -> control := Some c)
          { (Service.default_config addr) with Service.state_dir = Some dir })
      ()
  in
  let client = Worker.default_config ~addr ~worker_name:"ctl" in
  (match Worker.submit client (spec ~seed:5 ()) with
  | Ok (Worker.Submit_queued 0) -> ()
  | _ -> Alcotest.fail "submit");
  let wcfg =
    {
      (Worker.default_config ~addr ~worker_name:"stray") with
      Worker.retry_delay_s = 0.05;
      retry = { Worker.base_s = 0.05; cap_s = 0.1; max_attempts = 3; budget_s = 5. };
    }
  in
  let stray = Protocol.spec_fingerprint (spec ~seed:6 ()) in
  (match Worker.run wcfg ~scope:stray ~resolve:(local e prep) with
  | _ -> Alcotest.fail "a campaign the service does not hold must be rejected"
  | exception Worker.Rejected reason ->
      Alcotest.(check bool) "unknown campaign named" true
        (String.length reason >= 16 && String.sub reason 0 16 = "unknown campaign"));
  (match !control with Some c -> c.Service.request_drain () | None -> Alcotest.fail "ready");
  Thread.join server

(* A corrupt checkpoint and another campaign's checkpoint each fail the
   pinned service with a typed error before it ever binds its socket. *)
let test_bad_checkpoint_refused () =
  with_dir @@ fun dir ->
  with_sock @@ fun path addr ->
  let ckpt = Filename.concat dir "campaign.ckpt" in
  let s = spec () in
  let serve () =
    Service.serve ~campaign:(pinned ~checkpoint:ckpt s) (Service.default_config addr)
  in
  Out_channel.with_open_bin ckpt (fun oc -> output_string oc "faultmc-dist 3\ngarbage\n");
  (match serve () with
  | _ -> Alcotest.fail "a corrupt checkpoint must be refused"
  | exception Sched.Bad_checkpoint (p, Sched.Unreadable _) ->
      Alcotest.(check string) "path named" ckpt p);
  Alcotest.(check bool) "never bound (corrupt)" false (Sys.file_exists path);
  Ckpt.save ~path:ckpt
    {
      Ckpt.st_fingerprint = Protocol.spec_fingerprint (spec ~seed:99 ());
      st_shards = [];
      st_quarantined = [];
      st_audit = { Ckpt.au_entries = []; au_banned = [] };
    };
  (match serve () with
  | _ -> Alcotest.fail "another campaign's checkpoint must be refused"
  | exception Sched.Bad_checkpoint (_, Sched.Foreign_campaign) -> ());
  Alcotest.(check bool) "never bound (foreign)" false (Sys.file_exists path)

(* The queue log that recorded a quarantine dies with a [serve]
   process, so a service resumed from the checkpoint alone takes the
   banned names from it and still refuses those workers at hello. *)
let test_resumed_checkpoint_keeps_quarantine () =
  with_dir @@ fun dir ->
  with_sock @@ fun _ addr ->
  let ckpt = Filename.concat dir "campaign.ckpt" in
  let s = spec () in
  let fingerprint = Protocol.spec_fingerprint s in
  Ckpt.save ~path:ckpt
    {
      Ckpt.st_fingerprint = fingerprint;
      st_shards = [];
      st_quarantined = [];
      st_audit = { Ckpt.au_entries = []; au_banned = [ "mallory" ] };
    };
  let control = ref None in
  let server =
    Thread.create
      (fun () ->
        Service.serve
          ~on_ready:(fun c -> control := Some c)
          ~campaign:(pinned ~checkpoint:ckpt s) (Service.default_config addr))
      ()
  in
  let fd = Wire.connect ~attempts:40 ~delay_s:0.05 addr in
  let conn = Wire.conn fd in
  send conn (Protocol.Hello { version = Protocol.version; worker = "mallory"; fingerprint });
  (match recv conn with
  | Protocol.Reject { reason } ->
      Alcotest.(check bool) "quarantine named" true
        (String.length reason >= 18 && String.sub reason 0 18 = "worker quarantined")
  | _ -> Alcotest.fail "a worker banned in the checkpoint must be refused at hello");
  Wire.close conn;
  (match !control with Some c -> c.Service.request_drain () | None -> Alcotest.fail "ready");
  Thread.join server

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fmc_sched"
    [
      ( "queue",
        [
          Alcotest.test_case "roundtrip and compaction" `Quick test_queue_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_queue_torn_tail;
          Alcotest.test_case "mid-log corruption stops replay" `Quick
            test_queue_mid_corruption_stops_replay;
          Alcotest.test_case "damaged snapshot refused" `Quick test_damaged_snapshot_refused;
          Alcotest.test_case "old wal/ layout refused" `Quick test_old_layout_refused;
        ] );
      ( "sched",
        [
          Alcotest.test_case "admission, cancel, cache" `Slow test_admission_cancel_cache;
          Alcotest.test_case "drain stops leasing" `Quick test_drain_stops_leasing;
          Alcotest.test_case "straggler duplicated, loser fenced" `Quick
            test_straggler_speculation;
          Alcotest.test_case "every straggler duplicated" `Quick
            test_speculation_duplicates_every_straggler;
          Alcotest.test_case "expired audit lease charged" `Quick test_audit_lease_expiry_charged;
          Alcotest.test_case "quarantine frees audit leases" `Quick
            test_quarantine_frees_audit_leases;
          Alcotest.test_case "a liar cannot complete its own audit" `Quick
            test_liar_cannot_complete_its_audit;
          Alcotest.test_case "a forged completion keeps the holder's lease" `Quick
            test_forged_completion_keeps_holder_lease;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "kill -9 recovery is bit-identical" `Slow
            test_kill9_recovery_bit_identical;
          Alcotest.test_case "kill -9 mid-audit preserves obligations" `Slow
            test_kill9_mid_audit_preserves_obligations;
          Alcotest.test_case "torn submit record dropped" `Quick test_torn_submit_record_dropped;
          Alcotest.test_case "the accept path appends" `Quick test_accept_appends;
          Alcotest.test_case "a torn delta costs only its shards" `Quick
            test_torn_delta_costs_its_shards;
        ] );
      ( "service",
        [
          Alcotest.test_case "loopback pool campaign" `Slow test_service_loopback_pool;
          Alcotest.test_case "lone worker self-audits beside a waiting client" `Quick
            test_lone_worker_self_audits;
          Alcotest.test_case "linger 0 waits for clients" `Quick
            test_linger_zero_waits_for_clients;
          Alcotest.test_case "drain ends linger and state" `Quick
            test_drain_ends_linger_and_state;
          Alcotest.test_case "linger waits for a sleeping lessee" `Quick
            test_linger_waits_for_sleeping_lessee;
          Alcotest.test_case "drain keeps workers for a restart" `Quick
            test_drain_keeps_workers_for_restart;
          Alcotest.test_case "pinned service refuses other campaigns" `Quick
            test_pinned_refuses_other_campaigns;
          Alcotest.test_case "unknown fingerprint rejected" `Quick
            test_unknown_fingerprint_rejected;
          Alcotest.test_case "bad checkpoint refused" `Quick test_bad_checkpoint_refused;
          Alcotest.test_case "resumed checkpoint keeps quarantine" `Quick
            test_resumed_checkpoint_keeps_quarantine;
        ] );
    ]
