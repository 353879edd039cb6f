(* Tests for the distributed campaign service: RNG substream isolation,
   the shared tally/quarantine wire codecs, lease epoch fencing
   (exactly-once), service checkpointing, permutation-invariant
   merging, and a full loopback campaign over a Unix socket with a
   worker dying mid-run — whose merged report must be bit-identical to
   the single-process sharded reference. *)

module Programs = Fmc_isa.Programs
module Rng = Fmc_prelude.Rng
module Service = Fmc_sched.Service
module Sched = Fmc_sched.Sched
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

let exact = Alcotest.(check (float 0.))

let check_reports_equal (a : Ssf.report) (b : Ssf.report) =
  Alcotest.(check string) "strategy" a.Ssf.strategy b.Ssf.strategy;
  Alcotest.(check int) "n" a.Ssf.n b.Ssf.n;
  exact "ssf" a.Ssf.ssf b.Ssf.ssf;
  exact "ssf_upper" a.Ssf.ssf_upper b.Ssf.ssf_upper;
  exact "variance" a.Ssf.variance b.Ssf.variance;
  exact "ess" a.Ssf.ess b.Ssf.ess;
  exact "sum_w" a.Ssf.sum_w b.Ssf.sum_w;
  exact "sum_w2" a.Ssf.sum_w2 b.Ssf.sum_w2;
  Alcotest.(check int) "successes" a.Ssf.successes b.Ssf.successes;
  Alcotest.(check int) "masked" a.Ssf.outcomes.Ssf.masked b.Ssf.outcomes.Ssf.masked;
  Alcotest.(check int) "mem_only" a.Ssf.outcomes.Ssf.mem_only b.Ssf.outcomes.Ssf.mem_only;
  Alcotest.(check int) "resumed" a.Ssf.outcomes.Ssf.resumed b.Ssf.outcomes.Ssf.resumed;
  Alcotest.(check int) "quarantined" a.Ssf.outcomes.Ssf.quarantined
    b.Ssf.outcomes.Ssf.quarantined;
  Alcotest.(check int) "by_direct" a.Ssf.success_by_direct b.Ssf.success_by_direct;
  Alcotest.(check int) "by_comb" a.Ssf.success_by_comb b.Ssf.success_by_comb;
  Alcotest.(check (list (pair int (float 0.)))) "trace" a.Ssf.trace b.Ssf.trace;
  Alcotest.(check (list (pair (pair string int) (float 0.))))
    "contributions" a.Ssf.contributions b.Ssf.contributions

(* ------------------------------------------------------------------ *)
(* RNG substreams *)

let test_substream_deterministic () =
  let a = Rng.substream ~seed:42L ~shard:3 in
  let b = Rng.substream ~seed:42L ~shard:3 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same draw" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.substream ~seed:42L ~shard:4 in
  Alcotest.(check bool) "different shard diverges" true (Rng.int64 a <> Rng.int64 c)

let test_substream_disjoint () =
  (* Pairwise disjoint over 10^6 draws across 4 shards: SplitMix64 with
     distinct start states collides with probability ~ (10^6)^2 / 2^64
     per pair — effectively never; a collision here means the substream
     spacing is broken. *)
  let seen = Hashtbl.create (1 lsl 20) in
  let collisions = ref 0 in
  for shard = 0 to 3 do
    let rng = Rng.substream ~seed:7L ~shard in
    for _ = 1 to 250_000 do
      let v = Rng.int64 rng in
      (match Hashtbl.find_opt seen v with
      | Some other when other <> shard -> incr collisions
      | _ -> ());
      Hashtbl.replace seen v shard
    done
  done;
  Alcotest.(check int) "no cross-shard collisions" 0 !collisions

(* ------------------------------------------------------------------ *)
(* Shared codecs *)

let sample_shard () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  Campaign.run_shard e prep ~seed:11 ~shard:1 ~start:40 ~len:40

let test_tally_codec_roundtrip () =
  let sh = sample_shard () in
  let s = sh.Campaign.sh_snapshot in
  match Ssf.Tally.of_string (Ssf.Tally.to_string s) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok s' ->
      Alcotest.(check bool) "snapshot round-trips bit-exactly" true (s = s');
      (* and the decoded snapshot reports identically *)
      check_reports_equal
        (Campaign.shard_report ~strategy:"mixed" s)
        (Campaign.shard_report ~strategy:"mixed" s')

let quarantine_fixture =
  {
    Campaign.q_index = 123;
    q_disposition = Campaign.Crashed "Failure(\"boom with spaces\nand a newline\")";
    q_stratum = Sampler.Vulnerable;
    q_t = 7;
    q_center = 991;
    q_radius = 3.25;
    q_width = 110.5;
    q_time_frac = 0.625;
    q_weight = 1.75e-3;
  }

let test_quarantine_codec_roundtrip () =
  let check e =
    match Campaign.quarantine_entry_of_string (Campaign.quarantine_entry_to_string e) with
    | Error msg -> Alcotest.failf "decode failed: %s" msg
    | Ok e' ->
        Alcotest.(check int) "index" e.Campaign.q_index e'.Campaign.q_index;
        Alcotest.(check bool) "stratum" true (e.Campaign.q_stratum = e'.Campaign.q_stratum);
        exact "weight" e.Campaign.q_weight e'.Campaign.q_weight;
        exact "radius" e.Campaign.q_radius e'.Campaign.q_radius;
        (match (e.Campaign.q_disposition, e'.Campaign.q_disposition) with
        | Campaign.Timed_out, Campaign.Timed_out -> ()
        | Campaign.Crashed m, Campaign.Crashed m' ->
            (* newlines are flattened to spaces; everything else survives *)
            Alcotest.(check string) "message"
              (String.map (function '\n' -> ' ' | c -> c) m)
              m'
        | _ -> Alcotest.fail "disposition changed")
  in
  check quarantine_fixture;
  check { quarantine_fixture with Campaign.q_disposition = Campaign.Timed_out }

let test_protocol_roundtrip () =
  let client_msgs =
    [
      Protocol.Hello
        { version = Protocol.version; worker = "w1"; fingerprint = "v2 strategy=mixed seed=7" };
      Protocol.Request_shard;
      Protocol.Heartbeat { shard = 3; epoch = 2; samples_done = 40 };
      Protocol.Shard_done
        {
          shard = 3;
          epoch = 2;
          tally = "line one\nline two\n";
          quarantined = [ quarantine_fixture ];
        };
      Protocol.Fetch_report;
      Protocol.Goodbye;
    ]
  in
  List.iter
    (fun m ->
      let tag, payload = Protocol.encode_client m in
      match Protocol.decode_client tag payload with
      | Error msg -> Alcotest.failf "client decode failed: %s" msg
      | Ok m' -> (
          (* the quarantine message flattens newlines in crash payloads;
             compare everything else structurally *)
          match (m, m') with
          | Protocol.Shard_done a, Protocol.Shard_done b ->
              Alcotest.(check int) "shard" a.shard b.shard;
              Alcotest.(check int) "epoch" a.epoch b.epoch;
              Alcotest.(check string) "tally" a.tally b.tally;
              Alcotest.(check int) "nq" (List.length a.quarantined) (List.length b.quarantined)
          | _ -> Alcotest.(check bool) "client msg round-trips" true (m = m')))
    client_msgs;
  let server_msgs =
    [
      Protocol.Welcome { version = Protocol.version };
      Protocol.Retry_later { cooldown_s = 2.5 };
      Protocol.Assign { shard = 0; epoch = 1; start = 0; len = 100 };
      Protocol.No_work { finished = true };
      Protocol.No_work { finished = false };
      Protocol.Ack { accepted = false; reason = "stale epoch" };
      Protocol.Report
        { shards = [ (0, "a\nb\n"); (1, "c\n") ]; quarantined = []; elapsed_s = 1.5 };
      Protocol.Reject { reason = "fingerprint mismatch" };
    ]
  in
  List.iter
    (fun m ->
      let tag, payload = Protocol.encode_server m in
      match Protocol.decode_server tag payload with
      | Error msg -> Alcotest.failf "server decode failed: %s" msg
      | Ok m' -> Alcotest.(check bool) "server msg round-trips" true (m = m'))
    server_msgs

(* ------------------------------------------------------------------ *)
(* Lease table *)

let plan3 = [| (0, 10); (10, 10); (20, 5) |]

let test_lease_lifecycle () =
  let t = Lease.create ~plan:plan3 ~ttl:10. in
  Alcotest.(check int) "total" 3 (Lease.total t);
  (match Lease.acquire t ~now:0. ~worker:"a" with
  | `Assign { Lease.shard = 0; epoch = 1; start = 0; len = 10 } -> ()
  | _ -> Alcotest.fail "expected shard 0 epoch 1");
  Alcotest.(check int) "in flight" 1 (Lease.in_flight t);
  (* heartbeat extends the deadline *)
  Alcotest.(check bool) "heartbeat ok" true (Lease.heartbeat t ~now:5. ~shard:0 ~epoch:1 = `Ok);
  Alcotest.(check int) "no expiry before deadline" 0 (List.length (Lease.sweep_expired t ~now:12.));
  Alcotest.(check (list (pair int string))) "expiry after deadline names the holder" [ (0, "a") ]
    (Lease.sweep_expired t ~now:16.);
  Alcotest.(check bool) "late heartbeat stale" true
    (Lease.heartbeat t ~now:16. ~shard:0 ~epoch:1 = `Stale);
  (* the shard comes back under a bumped epoch *)
  (match Lease.acquire t ~now:16. ~worker:"b" with
  | `Assign { Lease.shard = 0; epoch = 2; _ } -> ()
  | _ -> Alcotest.fail "expected shard 0 epoch 2");
  Alcotest.(check bool) "stale complete fenced" true
    (Lease.complete t ~shard:0 ~epoch:1 = `Stale);
  Alcotest.(check bool) "current complete accepted" true
    (Lease.complete t ~shard:0 ~epoch:2 = `Accepted);
  Alcotest.(check bool) "re-delivery is duplicate" true
    (Lease.complete t ~shard:0 ~epoch:2 = `Duplicate);
  Alcotest.(check bool) "unknown shard" true (Lease.complete t ~shard:99 ~epoch:1 = `Unknown);
  (* drain the rest *)
  List.iter
    (fun _ ->
      match Lease.acquire t ~now:20. ~worker:"b" with
      | `Assign { Lease.shard; epoch; _ } ->
          Alcotest.(check bool) "accepted" true (Lease.complete t ~shard ~epoch = `Accepted)
      | _ -> Alcotest.fail "expected an assignment")
    [ (); () ];
  Alcotest.(check bool) "finished" true (Lease.finished t);
  Alcotest.(check bool) "acquire after finish" true
    (Lease.acquire t ~now:21. ~worker:"c" = `Finished)

let test_lease_wait_when_all_leased () =
  let t = Lease.create ~plan:[| (0, 5) |] ~ttl:10. in
  (match Lease.acquire t ~now:0. ~worker:"a" with `Assign _ -> () | _ -> Alcotest.fail "assign");
  Alcotest.(check bool) "second worker waits" true (Lease.acquire t ~now:1. ~worker:"b" = `Wait)

(* Epoch fencing end to end over real shard results: the stale result is
   rejected, the shard re-runs, and the merged report covers exactly the
   requested sample count — no double counting, no holes. *)
let test_fencing_exactly_once () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 120 and shard_size = 30 and seed = 5 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let lease = Lease.create ~plan ~ttl:1. in
  let blobs = Hashtbl.create 8 in
  let run_one shard =
    let start, len = plan.(shard) in
    let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
    Ssf.Tally.to_string sh.Campaign.sh_snapshot
  in
  (* worker a leases shard 0 and dies *)
  (match Lease.acquire lease ~now:0. ~worker:"a" with
  | `Assign { Lease.shard = 0; epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "expected shard 0");
  Alcotest.(check int) "lease expires" 1 (List.length (Lease.sweep_expired lease ~now:2.));
  (* worker b drains everything under live epochs *)
  let rec drain now =
    match Lease.acquire lease ~now ~worker:"b" with
    | `Assign { Lease.shard; epoch; _ } ->
        let blob = run_one shard in
        Alcotest.(check bool) "accepted" true (Lease.complete lease ~shard ~epoch = `Accepted);
        Hashtbl.replace blobs shard blob;
        drain (now +. 0.1)
    | `Finished -> ()
    | `Wait -> Alcotest.fail "unexpected wait"
  in
  drain 2.;
  (* worker a's zombie result arrives after the fact: fenced *)
  Alcotest.(check bool) "zombie fenced" true (Lease.complete lease ~shard:0 ~epoch:1 = `Stale);
  Alcotest.(check int) "every shard exactly once" (Array.length plan) (Lease.completed lease);
  let shards = Hashtbl.fold (fun i b acc -> (i, b) :: acc) blobs [] in
  match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
  | Error msg -> Alcotest.failf "merge failed: %s" msg
  | Ok report ->
      Alcotest.(check int) "report covers every requested sample" samples report.Ssf.n;
      let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
      check_reports_equal reference.Campaign.report report

(* ------------------------------------------------------------------ *)
(* Service checkpoint *)

let test_ckpt_roundtrip () =
  let path = Filename.temp_file "fmc-dist" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let state =
        {
          Ckpt.st_fingerprint = "v1 strategy=mixed benchmark=write samples=100 seed=7";
          st_shards = [ (0, "alpha\nbeta\n"); (2, "gamma\n") ];
          st_quarantined = [ quarantine_fixture ];
          st_audit = { Ckpt.au_entries = []; au_banned = [] };
        }
      in
      Ckpt.save ~path state;
      (match Ckpt.load ~path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok s ->
          Alcotest.(check string) "fingerprint" state.Ckpt.st_fingerprint s.Ckpt.st_fingerprint;
          Alcotest.(check (list (pair int string))) "shards" state.Ckpt.st_shards s.Ckpt.st_shards;
          Alcotest.(check int) "quarantine count" 1 (List.length s.Ckpt.st_quarantined);
          Alcotest.(check bool) "empty audit block" true (s.Ckpt.st_audit = state.Ckpt.st_audit));
      (* The audit block (accepted-shard digests + banned workers) rides
         the same file and round-trips exactly. *)
      let audited =
        {
          state with
          Ckpt.st_audit =
            {
              Ckpt.au_entries =
                [
                  { Ckpt.au_shard = 0; au_worker = "alice"; au_digest = "d0"; au_passed = true };
                  { Ckpt.au_shard = 2; au_worker = "bob"; au_digest = "d2"; au_passed = false };
                ];
              au_banned = [ "mallory" ];
            };
        }
      in
      Ckpt.save ~path audited;
      (match Ckpt.load ~path with
      | Error msg -> Alcotest.failf "audited load failed: %s" msg
      | Ok s ->
          Alcotest.(check bool) "audit block round-trips" true
            (s.Ckpt.st_audit = audited.Ckpt.st_audit));
      (* One format: any other header is refused with an error. *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let older = "faultmc-dist 2" ^ String.sub raw 14 (String.length raw - 14) in
      Out_channel.with_open_bin path (fun oc -> output_string oc older);
      match Ckpt.load ~path with
      | Error msg ->
          Alcotest.(check bool) "version named in the refusal" true
            (String.length msg > 0 && String.sub msg 0 11 = "unsupported")
      | Ok _ -> Alcotest.fail "a faultmc-dist 2 header must be refused")

(* ------------------------------------------------------------------ *)
(* Permutation-invariant merging *)

let test_merge_order_invariant () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 120 and shard_size = 30 and seed = 9 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let blobs =
    Array.to_list
      (Array.mapi
         (fun shard (start, len) ->
           let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
           (shard, Ssf.Tally.to_string sh.Campaign.sh_snapshot))
         plan)
  in
  let merged order =
    match Merge.report_of_blobs ~strategy:(Sampler.name prep) order with
    | Ok r -> r
    | Error msg -> Alcotest.failf "merge failed: %s" msg
  in
  let reference = merged blobs in
  check_reports_equal reference (merged (List.rev blobs));
  (match blobs with
  | a :: b :: rest -> check_reports_equal reference (merged (b :: (rest @ [ a ])))
  | _ -> Alcotest.fail "expected several shards");
  (* and the sharded single-process runner is the same computation *)
  let local = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
  check_reports_equal local.Campaign.report reference

(* ------------------------------------------------------------------ *)
(* Loopback campaign over a Unix socket *)

let send conn msg =
  let tag, payload = Protocol.encode_client msg in
  Wire.write_frame conn ~tag payload

let recv conn =
  let tag, payload = Wire.read_frame conn in
  match Protocol.decode_server tag payload with
  | Ok m -> m
  | Error msg -> Alcotest.failf "server sent garbage: %s" msg

(* The campaign service holding the one campaign whose fingerprint is
   the [Protocol.fingerprint] these tests compute (benchmark "write"). *)
let serve_campaign ?obs ?on_view ?checkpoint ?(audit_rate = 0.) ~ttl_s ~linger_s addr prep
    ~samples ~seed ~shard_size =
  let spec =
    {
      Protocol.sp_benchmark = "write";
      sp_strategy = Sampler.name prep;
      sp_samples = samples;
      sp_seed = seed;
      sp_shard_size = shard_size;
      sp_sample_budget = None;
      sp_fault_model = "disc-transient";
    }
  in
  let config =
    {
      (Service.default_config addr) with
      Service.sched = { Sched.default_config with Sched.ttl_s; audit_rate };
    }
  in
  Service.serve ?obs ?on_view ~campaign:{ Service.spec; checkpoint; linger_s } config

let finished_report outcome =
  match outcome with
  | Some { Service.sv_report = Some (shards, quarantined, _); _ } -> (shards, quarantined)
  | Some _ -> Alcotest.fail "the service stopped before the campaign finished"
  | None -> Alcotest.fail "no outcome"

let test_loopback_campaign_with_dead_worker () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 120 and shard_size = 30 and seed = 5 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let fingerprint =
    Protocol.fingerprint ~strategy:(Sampler.name prep) ~benchmark:"write" ~samples ~seed
      ~shard_size ~sample_budget:None ()
  in
  let sock_path = Filename.temp_file "fmc-dist" ".sock" in
  Sys.remove sock_path;
  let ckpt_path = Filename.temp_file "fmc-dist" ".ckpt" in
  Sys.remove ckpt_path;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ sock_path; ckpt_path ])
    (fun () ->
      let addr = Wire.Unix_path sock_path in
      let serve ?obs () =
        serve_campaign ?obs ~checkpoint:ckpt_path ~ttl_s:1.0 ~linger_s:1.5 addr prep ~samples
          ~seed ~shard_size
      in
      let reg = Fmc_obs.Metrics.create () in
      let obs = Fmc_obs.Obs.create ~metrics:reg () in
      let outcome = ref None in
      let server = Thread.create (fun () -> outcome := Some (serve ~obs ())) () in
      (* A worker takes the first lease and dies without completing it:
         connect, hello, lease, go silent past the TTL, then report the
         (well-formed!) result under the now-fenced epoch. *)
      let fd = Wire.connect ~attempts:40 ~delay_s:0.1 addr in
      let conn = Wire.conn fd in
      send conn (Protocol.Hello { version = Protocol.version; worker = "dying"; fingerprint });
      (match recv conn with
      | Protocol.Welcome _ -> ()
      | _ -> Alcotest.fail "expected welcome");
      send conn Protocol.Request_shard;
      let shard, epoch, start, len =
        match recv conn with
        | Protocol.Assign { shard; epoch; start; len } -> (shard, epoch, start, len)
        | _ -> Alcotest.fail "expected an assignment"
      in
      Alcotest.(check int) "first lease epoch" 1 epoch;
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      let blob = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
      Thread.delay 1.6 (* past the TTL: the service expires the lease *);
      send conn (Protocol.Shard_done { shard; epoch; tally = blob; quarantined = [] });
      (match recv conn with
      | Protocol.Ack { accepted = false; _ } -> ()
      | _ -> Alcotest.fail "zombie result must be fenced");
      Wire.close conn;
      (* A healthy worker finishes the campaign, re-running the orphaned
         shard under its bumped epoch. *)
      let wcfg =
        {
          (Worker.default_config ~addr ~worker_name:"healthy") with
          Worker.heartbeat_every = 7;
          retry_delay_s = 0.1;
        }
      in
      let accepted = Worker.run wcfg ~fingerprint e prep ~seed in
      Alcotest.(check int) "healthy worker ran every shard" (Array.length plan) accepted;
      Thread.join server;
      let shards, quarantined = finished_report !outcome in
      Alcotest.(check int) "all shard results" (Array.length plan) (List.length shards);
      Alcotest.(check int) "nothing quarantined" 0 (List.length quarantined);
      let dist =
        match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
        | Ok r -> r
        | Error msg -> Alcotest.failf "merge failed: %s" msg
      in
      let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
      check_reports_equal reference.Campaign.report dist;
      (* Service metrics recorded the failure story: one expired
         lease, one fenced stale result, every shard completed. *)
      let metric name =
        match Fmc_obs.Metrics.find (Fmc_obs.Metrics.snapshot reg) name with
        | Some (Fmc_obs.Metrics.Counter v) -> v
        | _ -> Alcotest.failf "missing counter %s" name
      in
      Alcotest.(check bool) "lease expired" true (metric "fmc_dist_leases_expired_total" >= 1.);
      Alcotest.(check bool) "stale result fenced" true
        (metric "fmc_dist_stale_results_total" >= 1.);
      exact "shards completed"
        (float_of_int (Array.length plan))
        (metric "fmc_dist_shards_completed_total");
      (* The checkpoint now holds the whole campaign: a restarted
         service resumes finished and serves the same report. *)
      let outcome2 = ref None in
      let server2 = Thread.create (fun () -> outcome2 := Some (serve ())) () in
      let fcfg = Worker.default_config ~addr ~worker_name:"report-client" in
      (match Worker.fetch_report ~poll_s:0.05 ~timeout_s:10. fcfg ~fingerprint:"different" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "fingerprint mismatch must be rejected");
      (match Worker.fetch_report ~poll_s:0.05 ~timeout_s:10. fcfg ~fingerprint with
      | Error err -> Alcotest.failf "fetch failed: %s" (Worker.fetch_error_message err)
      | Ok (shards, quarantined, _) ->
          Alcotest.(check int) "resumed shards" (Array.length plan) (List.length shards);
          Alcotest.(check int) "resumed quarantines" 0 (List.length quarantined);
          let fetched =
            match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
            | Ok r -> r
            | Error msg -> Alcotest.failf "merge failed: %s" msg
          in
          check_reports_equal reference.Campaign.report fetched);
      Thread.join server2;
      Alcotest.(check int) "restart served from checkpoint" (Array.length plan)
        (List.length (fst (finished_report !outcome2))))

(* ------------------------------------------------------------------ *)
(* Fleet observability: old protocol versions refused, trace-id
   stamping on leases, worker telemetry piggybacked on existing
   messages — and the invariant that none of it moves a single byte of
   the merged report. *)

let test_old_versions_refused () =
  Alcotest.(check bool) "v3 refused" false (Protocol.accepts_version 3);
  Alcotest.(check bool) "v4 refused" false (Protocol.accepts_version 4);
  Alcotest.(check bool) "v5 accepted" true (Protocol.accepts_version Protocol.version);
  Alcotest.(check bool) "future version refused" false
    (Protocol.accepts_version (Protocol.version + 1));
  (* The campaign fingerprint is part of the handshake contract and
     must not move with the wire version. *)
  Alcotest.(check int) "fingerprint version stays 3" 3 Protocol.fingerprint_version

(* The v5 digest extension rides Shard_done/Job_done and round-trips
   next to the v4 telemetry sections. *)
let test_digest_extension_roundtrip () =
  let msg =
    Protocol.Shard_done { shard = 1; epoch = 2; tally = "line one\n"; quarantined = [] }
  in
  let ext = { Protocol.no_extension with Protocol.ext_digest = Some "00ff00ffdeadbeef" } in
  let tag, payload = Protocol.encode_client_ext ~ext msg in
  (match Protocol.decode_client_ext tag payload with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok (m', ext') ->
      Alcotest.(check bool) "message survives" true (m' = msg);
      Alcotest.(check (option string)) "digest survives" (Some "00ff00ffdeadbeef")
        ext'.Protocol.ext_digest);
  (* And plain encodes carry no digest. *)
  let tag, payload = Protocol.encode_client msg in
  match Protocol.decode_client_ext tag payload with
  | Error e -> Alcotest.failf "plain decode failed: %s" e
  | Ok (_, ext') ->
      Alcotest.(check (option string)) "absent by default" None ext'.Protocol.ext_digest

let recv_ext conn =
  let tag, payload = Wire.read_frame conn in
  match Protocol.decode_server_ext tag payload with
  | Ok pair -> pair
  | Error msg -> Alcotest.failf "server sent garbage: %s" msg

let contains hay sub =
  let n = String.length sub and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let test_loopback_fleet_telemetry () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 90 and shard_size = 30 and seed = 7 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let fingerprint =
    Protocol.fingerprint ~strategy:(Sampler.name prep) ~benchmark:"write" ~samples ~seed
      ~shard_size ~sample_budget:None ()
  in
  let sock_path = Filename.temp_file "fmc-dist" ".sock" in
  Sys.remove sock_path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock_path then Sys.remove sock_path)
    (fun () ->
      let addr = Wire.Unix_path sock_path in
      let obs =
        Fmc_obs.Obs.create ~metrics:(Fmc_obs.Metrics.create ())
          ~tracer:(Fmc_obs.Span.create ()) ()
      in
      let view = ref None in
      let outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome :=
              Some
                (serve_campaign ~obs
                   ~on_view:(fun v -> view := Some v)
                   ~ttl_s:1.0 ~linger_s:1.0 addr prep ~samples ~seed ~shard_size))
          ()
      in
      let v =
        let rec wait n =
          match !view with
          | Some v -> v
          | None ->
              if n = 0 then Alcotest.fail "service never published its view"
              else (
                Thread.delay 0.05;
                wait (n - 1))
        in
        wait 100
      in
      Alcotest.(check (list string)) "view holds the pinned campaign, whose trace id is stamped"
        [ fingerprint ]
        (List.map (fun e -> e.Protocol.st_fingerprint) (v.Service.vw_status ()));
      (* Peers of an older protocol version get a terminal Reject at
         hello: there is no negotiating down. *)
      List.iter
        (fun version ->
          let fd = Wire.connect ~attempts:40 ~delay_s:0.1 addr in
          let conn = Wire.conn fd in
          send conn (Protocol.Hello { version; worker = "legacy"; fingerprint });
          (match recv conn with
          | Protocol.Reject { reason } ->
              Alcotest.(check bool) "version named in the rejection" true
                (contains reason "version")
          | _ -> Alcotest.failf "a v%d hello must be rejected" version);
          Wire.close conn)
        [ 3; 4 ];
      (* A current peer sees trace ids stamped on its lease and gets its
         piggybacked telemetry absorbed into the fleet view. *)
      let fd = Wire.connect ~attempts:40 ~delay_s:0.1 addr in
      let conn = Wire.conn fd in
      send conn
        (Protocol.Hello { version = Protocol.version; worker = "manual"; fingerprint });
      (match recv conn with
      | Protocol.Welcome { version } ->
          Alcotest.(check int) "welcome carries the current version" Protocol.version version
      | _ -> Alcotest.fail "expected welcome");
      send conn Protocol.Request_shard;
      let (shard, epoch, start, len), ext =
        match recv_ext conn with
        | Protocol.Assign { shard; epoch; start; len }, ext -> ((shard, epoch, start, len), ext)
        | _ -> Alcotest.fail "expected an assignment"
      in
      (match ext.Protocol.ext_trace with
      | Some (tid, sid) ->
          Alcotest.(check string) "campaign trace id stamped"
            (Fmc_obs.Traceid.trace_id ~fingerprint)
            tid;
          Alcotest.(check string) "shard span id stamped"
            (Fmc_obs.Traceid.span_id ~fingerprint ~shard)
            sid
      | None -> Alcotest.fail "an assign must carry trace ids");
      (* Heartbeat with a telemetry batch piggybacked on the side. *)
      let wreg = Fmc_obs.Metrics.create () in
      Fmc_obs.Metrics.add (Fmc_obs.Metrics.counter wreg "fmc_dist_worker_marker_total") 2.;
      let batch =
        Fmc_obs.Telemetry.make
          ~trace_id:(Fmc_obs.Traceid.trace_id ~fingerprint)
          ~metrics:(Fmc_obs.Metrics.snapshot wreg)
          ~spans:
            [
              {
                Fmc_obs.Telemetry.ss_span_id = Fmc_obs.Traceid.span_id ~fingerprint ~shard;
                ss_event =
                  {
                    Fmc_obs.Span.ev_name = Printf.sprintf "shard-%d" shard;
                    ev_cat = "dist";
                    ev_tid = 1;
                    ev_ts_us = 5.;
                    ev_dur_us = 3.;
                  };
              };
            ]
          ()
      in
      let ext =
        {
          Protocol.no_extension with
          Protocol.ext_telemetry = Some (Fmc_obs.Telemetry.encode batch);
        }
      in
      let tag, payload =
        Protocol.encode_client_ext ~ext (Protocol.Heartbeat { shard; epoch; samples_done = 1 })
      in
      Wire.write_frame conn ~tag payload;
      (match recv conn with
      | Protocol.Ack { accepted = true; _ } -> ()
      | _ -> Alcotest.fail "live heartbeat must be acked");
      (* The scrape surface reflects the absorbed batch. *)
      (match List.find_opt (fun w -> w.Service.w_name = "manual") (v.Service.vw_workers ()) with
      | Some w ->
          Alcotest.(check int) "span summary absorbed" 1 w.Service.w_spans;
          Alcotest.(check bool) "wall clock stamped" true (w.Service.w_last_wall > 0.)
      | None -> Alcotest.fail "manual worker missing from the fleet view");
      Alcotest.(check bool) "/metrics merges the worker snapshot" true
        (contains (v.Service.vw_metrics ()) "fmc_dist_worker_marker_total 2");
      let health = v.Service.vw_health () in
      Alcotest.(check int) "shards total" (Array.length plan) health.Service.h_shards_total;
      Alcotest.(check bool) "not finished yet" false health.Service.h_finished;
      (* Complete the leased shard for real, telemetry on the side again. *)
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      let tag, payload =
        Protocol.encode_client_ext ~ext
          (Protocol.Shard_done
             {
               shard;
               epoch;
               tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot;
               quarantined = [];
             })
      in
      Wire.write_frame conn ~tag payload;
      (match recv conn with
      | Protocol.Ack { accepted = true; _ } -> ()
      | _ -> Alcotest.fail "shard result must be accepted");
      Wire.close conn;
      (* A real worker (with its own obs) finishes the campaign. *)
      let wobs =
        Fmc_obs.Obs.create ~metrics:(Fmc_obs.Metrics.create ())
          ~tracer:(Fmc_obs.Span.create ()) ()
      in
      let wcfg =
        {
          (Worker.default_config ~addr ~worker_name:"v4-worker") with
          Worker.heartbeat_every = 7;
          retry_delay_s = 0.1;
        }
      in
      let accepted = Worker.run ~obs:wobs wcfg ~fingerprint e prep ~seed in
      Alcotest.(check int) "worker ran the remaining shards" (Array.length plan - 1) accepted;
      Thread.join server;
      let shards, _ = finished_report !outcome in
      let dist =
        match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
        | Ok r -> r
        | Error msg -> Alcotest.failf "merge failed: %s" msg
      in
      (* The acceptance bar: byte-identical JSON against the
         single-process sharded reference, telemetry and all. *)
      let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
      Alcotest.(check string) "report JSON byte-identical under telemetry"
        (Export.report_json reference.Campaign.report)
        (Export.report_json dist);
      (* The stitched fleet trace carries both workers on their own
         tracks next to the service's. *)
      let trace = v.Service.vw_trace_json () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " on the stitched trace") true (contains trace needle))
        [ "process_name"; "manual"; "v4-worker"; "\"pid\":1"; "\"pid\":2"; "\"pid\":3" ])

(* ------------------------------------------------------------------ *)
(* Untrusted workers: the canonical result digest gates
   acceptance, the seeded audit re-executes accepted shards, and a
   quorum verdict quarantines a proven liar — with the merged report
   still byte-identical to the single-process reference. *)

let send_with_digest conn ~digest msg =
  let ext = { Protocol.no_extension with Protocol.ext_digest = Some digest } in
  let tag, payload = Protocol.encode_client_ext ~ext msg in
  Wire.write_frame conn ~tag payload

(* Flip the last digit of the tally's first line ("samples %d"): the
   blob still decodes — Tally.of_string does not cross-check the header
   against the strata — but the canonical digest moves. The cheapest
   convincing lie. *)
let mutate_tally blob =
  let eol = String.index blob '\n' in
  let b = Bytes.of_string blob in
  Bytes.set b (eol - 1) (if Bytes.get b (eol - 1) = '0' then '1' else '0');
  Bytes.to_string b

let test_loopback_lying_worker_quarantined () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 90 and shard_size = 30 and seed = 7 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let fingerprint =
    Protocol.fingerprint ~strategy:(Sampler.name prep) ~benchmark:"write" ~samples ~seed
      ~shard_size ~sample_budget:None ()
  in
  let sock_path = Filename.temp_file "fmc-dist" ".sock" in
  Sys.remove sock_path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock_path then Sys.remove sock_path)
    (fun () ->
      let addr = Wire.Unix_path sock_path in
      let reg = Fmc_obs.Metrics.create () in
      let obs = Fmc_obs.Obs.create ~metrics:reg () in
      let outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome :=
              Some
                (serve_campaign ~obs ~audit_rate:1.0 ~ttl_s:2.0 ~linger_s:2.0 addr prep ~samples
                   ~seed ~shard_size))
          ()
      in
      let fd = Wire.connect ~attempts:40 ~delay_s:0.1 addr in
      let conn = Wire.conn fd in
      send conn (Protocol.Hello { version = Protocol.version; worker = "mallory"; fingerprint });
      (match recv conn with
      | Protocol.Welcome _ -> ()
      | _ -> Alcotest.fail "expected welcome");
      (* Leg 1: a forged digest over an honest payload. Refused before
         anything is committed; the lease goes back in the pool. *)
      send conn Protocol.Request_shard;
      let shard, epoch, start, len =
        match recv conn with
        | Protocol.Assign { shard; epoch; start; len } -> (shard, epoch, start, len)
        | _ -> Alcotest.fail "expected an assignment"
      in
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      send_with_digest conn ~digest:"feedfacefeedface"
        (Protocol.Shard_done
           { shard; epoch; tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot; quarantined = [] });
      (match recv conn with
      | Protocol.Ack { accepted = false; reason } ->
          Alcotest.(check bool) "mismatch named in the refusal" true (contains reason "digest")
      | _ -> Alcotest.fail "a forged digest must be refused");
      (* Leg 2: a consistent lie — mutate the tally, then digest the
         mutated bytes. Passes the digest gate; only re-execution by
         someone honest can catch it. *)
      send conn Protocol.Request_shard;
      let shard, epoch, start, len =
        match recv conn with
        | Protocol.Assign { shard; epoch; start; len } -> (shard, epoch, start, len)
        | _ -> Alcotest.fail "expected a second assignment"
      in
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      let lie = mutate_tally (Ssf.Tally.to_string sh.Campaign.sh_snapshot) in
      send_with_digest conn
        ~digest:(Fmc_audit.Audit.Check.result_digest ~tally:lie ~quarantined:[])
        (Protocol.Shard_done { shard; epoch; tally = lie; quarantined = [] });
      (match recv conn with
      | Protocol.Ack { accepted = true; _ } -> ()
      | _ -> Alcotest.fail "a consistent lie passes the digest gate");
      Wire.close conn;
      (* The honest worker drains the remaining primaries, then the
         audit queue. Auditing mallory's shard disputes; being the only
         healthy worker left, it also arbitrates — and the verdict
         replaces the lie and quarantines mallory. *)
      let wcfg =
        {
          (Worker.default_config ~addr ~worker_name:"honest") with
          Worker.heartbeat_every = 7;
          retry_delay_s = 0.1;
        }
      in
      let accepted = Worker.run wcfg ~fingerprint e prep ~seed in
      Alcotest.(check bool) "honest worker ran primaries and audits" true
        (accepted >= Array.length plan - 1);
      (* Quarantine is terminal: mallory's reconnect is rejected at hello. *)
      let fd = Wire.connect ~attempts:40 ~delay_s:0.1 addr in
      let conn = Wire.conn fd in
      send conn (Protocol.Hello { version = Protocol.version; worker = "mallory"; fingerprint });
      (match recv conn with
      | Protocol.Reject { reason } ->
          Alcotest.(check bool) "quarantine named in the rejection" true
            (contains reason "quarantine")
      | _ -> Alcotest.fail "a quarantined worker must be rejected at hello");
      Wire.close conn;
      let refused_at = Unix.gettimeofday () in
      Thread.join server;
      (* Refused from now on, mallory is owed no [finished = true]: the
         service exits after its 2 s linger, not after the 12 s (TTL +
         back-off cap) it waits for a silent lessee. *)
      Alcotest.(check bool) "a quarantined lessee does not hold the exit" true
        (Unix.gettimeofday () -. refused_at < 6.);
      let shards, _ = finished_report !outcome in
      Alcotest.(check int) "all shard results" (Array.length plan) (List.length shards);
      let dist =
        match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
        | Ok r -> r
        | Error msg -> Alcotest.failf "merge failed: %s" msg
      in
      let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
      Alcotest.(check string) "report JSON byte-identical despite the liar"
        (Export.report_json reference.Campaign.report)
        (Export.report_json dist);
      let snap = Fmc_obs.Metrics.snapshot reg in
      let metric name =
        match Fmc_obs.Metrics.find snap name with
        | Some (Fmc_obs.Metrics.Counter v) -> v
        | _ -> Alcotest.failf "missing counter %s" name
      in
      Alcotest.(check bool) "forged digest counted" true
        (metric "fmc_audit_mismatches_total" >= 1.);
      Alcotest.(check bool) "every accepted shard audited" true
        (metric "fmc_audit_audits_total" >= float_of_int (Array.length plan));
      Alcotest.(check bool) "dispute escalated to arbitration" true
        (metric "fmc_audit_disputes_total" >= 1.);
      match Fmc_obs.Metrics.find snap "fmc_audit_quarantined_workers" with
      | Some (Fmc_obs.Metrics.Gauge v) -> exact "exactly one quarantined worker" 1. v
      | _ -> Alcotest.fail "missing gauge fmc_audit_quarantined_workers")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dist"
    [
      ( "rng",
        [
          Alcotest.test_case "substream deterministic" `Quick test_substream_deterministic;
          Alcotest.test_case "substreams disjoint" `Quick test_substream_disjoint;
        ] );
      ( "codec",
        [
          Alcotest.test_case "tally round-trip" `Quick test_tally_codec_roundtrip;
          Alcotest.test_case "quarantine round-trip" `Quick test_quarantine_codec_roundtrip;
          Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
        ] );
      ( "lease",
        [
          Alcotest.test_case "lifecycle and fencing" `Quick test_lease_lifecycle;
          Alcotest.test_case "wait when all leased" `Quick test_lease_wait_when_all_leased;
          Alcotest.test_case "exactly-once accounting" `Quick test_fencing_exactly_once;
        ] );
      ("ckpt", [ Alcotest.test_case "save/load round-trip" `Quick test_ckpt_roundtrip ]);
      ("merge", [ Alcotest.test_case "order invariant" `Quick test_merge_order_invariant ]);
      ( "loopback",
        [
          Alcotest.test_case "dead worker, bit-exact merge" `Quick
            test_loopback_campaign_with_dead_worker;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "old versions refused at hello" `Quick test_old_versions_refused;
          Alcotest.test_case "telemetry piggyback, bit-exact merge" `Quick
            test_loopback_fleet_telemetry;
        ] );
      ( "audit",
        [
          Alcotest.test_case "digest extension round-trip" `Quick
            test_digest_extension_roundtrip;
          Alcotest.test_case "lying worker quarantined, bit-exact merge" `Quick
            test_loopback_lying_worker_quarantined;
        ] );
    ]
