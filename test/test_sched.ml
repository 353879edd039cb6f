(* Tests for the multi-campaign scheduler: WAL framing and torn-tail
   replay, admission control and cancellation, report caching, kill -9
   recovery (WAL + per-campaign checkpoints) with bit-identical merged
   reports, and a loopback service driving a shared pool worker over a
   Unix socket through submit / fetch / cached resubmit / drain. *)

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
    | `Unknown_scope -> Alcotest.fail "pump: unknown scope"
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
    | `Wait | `Drained | `Banned | `Unknown_scope -> Alcotest.fail "expected a job"
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
    | `Wait | `Banned | `Unknown_scope -> Alcotest.fail "audits must be offered until drained"
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
          (Service.default_config ~addr ~state_dir:dir) with
          Service.handle_signals = false;
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
      | Some { Service.sv_reason = Service.Drained } -> ()
      | Some _ -> Alcotest.fail "expected a drained exit"
      | None -> Alcotest.fail "no outcome");
      ignore !saw_pending)

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
        [ Alcotest.test_case "loopback pool campaign" `Slow test_service_loopback_pool ] );
    ]
