(* Tests for the campaign service: WAL framing and torn-tail replay,
   admission control and cancellation, report caching, straggler
   speculation, kill -9 recovery (WAL + per-campaign checkpoints) with
   bit-identical merged reports, a loopback service driving a shared
   pool worker over a Unix socket through submit / fetch / cached
   resubmit / drain, self-audit by a lone worker, and the
   pinned-campaign ([faultmc serve]) rules: the linger exit, a drain
   and restart in mid-campaign, refused foreign submissions, unknown
   fingerprints and bad checkpoints. *)

module Programs = Fmc_isa.Programs
module Wal = Fmc_sched.Wal
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

(* Run one leased job on the local engine and feed the result back. *)
let run_job ?(worker = "pump") sched ~now e prep (sp : Protocol.spec) (a : Lease.assignment) =
  let sh =
    Campaign.run_shard e prep ~seed:sp.Protocol.sp_seed ~shard:a.Lease.shard ~start:a.Lease.start
      ~len:a.Lease.len
  in
  match
    Sched.complete sched ~now
      ~fingerprint:(Protocol.spec_fingerprint sp)
      ~shard:a.Lease.shard ~epoch:a.Lease.epoch ~worker ~digest:None
      ~tally:(Ssf.Tally.to_string sh.Campaign.sh_snapshot)
      ~quarantined:sh.Campaign.sh_quarantined
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
(* WAL *)

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  let empty = Wal.replay ~dir in
  Alcotest.(check (list string)) "empty" [] empty.Wal.records;
  let w = Wal.start ~dir ~initial:[ "alpha"; "beta" ] in
  Wal.append w "gamma";
  Wal.append w (String.make 5000 'x');
  Wal.close w;
  let r = Wal.replay ~dir in
  Alcotest.(check (list string))
    "records in order"
    [ "alpha"; "beta"; "gamma"; String.make 5000 'x' ]
    r.Wal.records;
  Alcotest.(check int) "no tears" 0 r.Wal.torn;
  (* Compaction rewrites the state into a single fresh segment. *)
  let w2 = Wal.start ~dir ~initial:r.Wal.records in
  Wal.close w2;
  let r2 = Wal.replay ~dir in
  Alcotest.(check (list string)) "post-compaction" r.Wal.records r2.Wal.records;
  Alcotest.(check int) "one segment" 1 r2.Wal.segments

let wal_segment dir =
  match Array.to_list (Sys.readdir dir) |> List.filter (fun n -> Filename.check_suffix n ".wal")
  with
  | [ seg ] -> Filename.concat dir seg
  | l -> Alcotest.failf "expected one segment, found %d" (List.length l)

let test_wal_torn_tail () =
  with_dir @@ fun dir ->
  let w = Wal.start ~dir ~initial:[] in
  Wal.append w "first";
  Wal.append w "second";
  Wal.append w "third";
  Wal.close w;
  (* Tear the tail the way a crash mid-append would: the final record
     loses its last bytes. *)
  let seg = wal_segment dir in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (size - 2);
  Unix.close fd;
  let r = Wal.replay ~dir in
  Alcotest.(check (list string)) "intact prefix" [ "first"; "second" ] r.Wal.records;
  Alcotest.(check int) "tear counted" 1 r.Wal.torn

let test_wal_mid_corruption_stops_replay () =
  with_dir @@ fun dir ->
  let w = Wal.start ~dir ~initial:[] in
  Wal.append w "aaaaaaaa";
  Wal.append w "bbbbbbbb";
  Wal.append w "cccccccc";
  Wal.close w;
  (* Flip a payload byte of the middle record: its CRC no longer checks
     out, and nothing after it may be applied either. *)
  let seg = wal_segment dir in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
  let middle_payload = 8 + 8 + 8 + 2 (* rec1 header+payload, rec2 header, 2 in *) in
  ignore (Unix.lseek fd middle_payload Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  let r = Wal.replay ~dir in
  Alcotest.(check (list string)) "only the prefix survives" [ "aaaaaaaa" ] r.Wal.records;
  Alcotest.(check int) "tear counted" 1 r.Wal.torn

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
  | `Job (sp, a) -> run_job sched1 ~now e prep sp a
  | _ -> Alcotest.fail "lease one s2 shard");
  (* sched1 is abandoned here, WAL handle and all, like a SIGKILL. *)
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
  (* sched1 is abandoned here — WAL handle, audit leases and all. *)
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
  (* Tear the tail of the live WAL: the s2 submit record is the victim,
     as if the crash hit mid-append. *)
  let seg = wal_segment (Filename.concat dir "wal") in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
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
              Worker.run_pool wcfg ~resolve:(fun _ -> Ok (e, prep, Ssf.disc_transient)) ())
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
        ignore (Worker.run_pool wcfg ~resolve:(fun _ -> Ok (e, prep, Ssf.disc_transient)) () : int))
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
  Alcotest.(check int) "worker ran every shard" 2 (Worker.run wcfg ~fingerprint:fp e prep ~seed:5);
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
  | Protocol.Assign { shard; epoch; start; len } ->
      let sh = Campaign.run_shard e prep ~seed:5 ~shard ~start ~len in
      send conn
        (Protocol.Shard_done
           { shard; epoch; tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot; quarantined = [] });
      (match recv conn with
      | Protocol.Ack { accepted = true; _ } -> ()
      | _ -> Alcotest.fail "expected the shard accepted")
  | _ -> Alcotest.fail "expected an assignment");
  Wire.close conn;
  (* Another worker finishes the campaign and is told so. *)
  let wcfg = { (Worker.default_config ~addr ~worker_name:"w") with Worker.retry_delay_s = 0.05 } in
  Alcotest.(check int) "worker ran the other shard" 1 (Worker.run wcfg ~fingerprint:fp e prep ~seed:5);
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
  Alcotest.(check int) "worker ran every shard" 2 (Worker.run wcfg ~fingerprint:fp e prep ~seed:5);
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
    | Protocol.Assign { shard; epoch; start; len } -> (shard, epoch, start, len)
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
        completed := Worker.run wcfg ~fingerprint:fp e prep ~seed:5;
        returned := true)
      ()
  in
  Thread.delay 0.5;
  Alcotest.(check bool) "the worker waits through the drain" false !returned;
  Alcotest.(check bool) "the in-flight lease holds the service" true (!first = None);
  let sh = Campaign.run_shard e prep ~seed:5 ~shard ~start ~len in
  send conn
    (Protocol.Shard_done
       {
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
  (match Worker.run wcfg ~fingerprint:stray e prep ~seed:6 with
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

(* The WAL that recorded a quarantine dies with a [serve] process, so a
   service resumed from the checkpoint alone takes the banned names from
   it and still refuses those workers at hello. *)
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
      ( "wal",
        [
          Alcotest.test_case "roundtrip and compaction" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "mid-segment corruption stops replay" `Quick
            test_wal_mid_corruption_stops_replay;
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
        ] );
      ( "recovery",
        [
          Alcotest.test_case "kill -9 recovery is bit-identical" `Slow
            test_kill9_recovery_bit_identical;
          Alcotest.test_case "kill -9 mid-audit preserves obligations" `Slow
            test_kill9_mid_audit_preserves_obligations;
          Alcotest.test_case "torn submit record dropped" `Quick test_torn_submit_record_dropped;
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
