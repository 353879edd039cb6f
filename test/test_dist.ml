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

(* A worker's resolver that hands every job this process's engine and
   prepared sampler under the default fault model. *)
let local e prep (_ : Protocol.spec) = Ok (e, prep, Ssf.disc_transient)

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

let sample_fixture =
  {
    Sampler.t = 7;
    center = 991;
    radius = 3.25;
    width = 110.5;
    time_frac = 0.625;
    weight = 1.75e-3;
    stratum = Sampler.Vulnerable;
  }

let quarantine_fixture =
  {
    Campaign.q_index = 123;
    q_disposition = Campaign.Crashed "Failure(\"boom with spaces\nand a newline\")";
    q_sample = sample_fixture;
  }

let test_quarantine_codec_roundtrip () =
  let check e =
    match Campaign.quarantine_entry_of_string (Campaign.quarantine_entry_to_string e) with
    | Error msg -> Alcotest.failf "decode failed: %s" msg
    | Ok e' ->
        Alcotest.(check int) "index" e.Campaign.q_index e'.Campaign.q_index;
        Alcotest.(check bool) "sample" true (e.Campaign.q_sample = e'.Campaign.q_sample);
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
  Alcotest.(check bool) "heartbeat ok" true
    (Lease.heartbeat t ~now:5. ~worker:"a" ~shard:0 ~epoch:1 = `Ok);
  Alcotest.(check int) "no expiry before deadline" 0 (List.length (Lease.sweep_expired t ~now:12.));
  Alcotest.(check (list (pair int string))) "expiry after deadline names the holder" [ (0, "a") ]
    (Lease.sweep_expired t ~now:16.);
  Alcotest.(check bool) "late heartbeat stale" true
    (Lease.heartbeat t ~now:16. ~worker:"a" ~shard:0 ~epoch:1 = `Stale);
  (* the shard comes back under a bumped epoch *)
  (match Lease.acquire t ~now:16. ~worker:"b" with
  | `Assign { Lease.shard = 0; epoch = 2; _ } -> ()
  | _ -> Alcotest.fail "expected shard 0 epoch 2");
  Alcotest.(check bool) "stale complete fenced" true
    (Lease.complete t ~worker:"a" ~shard:0 ~epoch:1 = `Stale);
  let accepted kind ~worker ~shard ~epoch =
    match Lease.complete t ~worker ~shard ~epoch with
    | `Accepted l -> l.Lease.kind = kind
    | _ -> false
  in
  Alcotest.(check bool) "only the holder heartbeats" true
    (Lease.heartbeat t ~now:16. ~worker:"a" ~shard:0 ~epoch:2 = `Stale);
  Alcotest.(check bool) "only the holder completes" true
    (Lease.complete t ~worker:"a" ~shard:0 ~epoch:2 = `Stale);
  Alcotest.(check bool) "current complete accepted" true
    (accepted Lease.First ~worker:"b" ~shard:0 ~epoch:2);
  Alcotest.(check bool) "re-delivery is duplicate" true
    (Lease.complete t ~worker:"b" ~shard:0 ~epoch:2 = `Duplicate);
  Alcotest.(check bool) "unknown shard" true
    (Lease.complete t ~worker:"b" ~shard:99 ~epoch:1 = `Unknown);
  (* a straggler on shard 1 gets one speculative duplicate, which wins *)
  (match Lease.acquire t ~now:20. ~worker:"b" with
  | `Assign { Lease.shard = 1; epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "expected shard 1 epoch 1");
  let spec ~now worker = Lease.speculate t ~now ~worker ~older_than:1. in
  Alcotest.(check bool) "no duplicate of a young lease" true (spec ~now:20.5 "c" = None);
  Alcotest.(check bool) "no duplicate for the holder" true (spec ~now:22. "b" = None);
  (match spec ~now:22. "c" with
  | Some { Lease.shard = 1; epoch = 2; _ } -> ()
  | _ -> Alcotest.fail "expected a duplicate of shard 1 under epoch 2");
  Alcotest.(check bool) "one duplicate per shard" true (spec ~now:22. "d" = None);
  Alcotest.(check int) "a duplicated shard is in flight once" 1 (Lease.in_flight t);
  Alcotest.(check bool) "duplicate heartbeats" true
    (Lease.heartbeat t ~now:23. ~worker:"c" ~shard:1 ~epoch:2 = `Ok);
  Alcotest.(check bool) "the duplicate wins" true
    (accepted Lease.Speculative ~worker:"c" ~shard:1 ~epoch:2);
  Alcotest.(check bool) "the straggler's heartbeat is fenced" true
    (Lease.heartbeat t ~now:23. ~worker:"b" ~shard:1 ~epoch:1 = `Stale);
  Alcotest.(check bool) "the straggler's result is fenced" true
    (Lease.complete t ~worker:"b" ~shard:1 ~epoch:1 = `Stale);
  (* an audit re-run of a done shard leaves its accepted result alone *)
  let audit ~now worker = Lease.audit t ~now ~worker ~due:(fun shard -> shard <> 1) in
  (match audit ~now:23. "c" with
  | Some { Lease.shard = 0; epoch = 3; _ } -> ()
  | _ -> Alcotest.fail "expected an audit of shard 0 under epoch 3");
  Alcotest.(check bool) "one audit per shard, none of an open one" true (audit ~now:23. "d" = None);
  Alcotest.(check int) "the audit is in flight" 1 (Lease.in_flight t);
  Alcotest.(check bool) "audit heartbeats" true
    (Lease.heartbeat t ~now:24. ~worker:"c" ~shard:0 ~epoch:3 = `Ok);
  Alcotest.(check bool) "the producer cannot settle its own audit" true
    (Lease.complete t ~worker:"b" ~shard:0 ~epoch:3 = `Stale);
  Alcotest.(check bool) "the audit completes as an audit" true
    (accepted Lease.Audit ~worker:"c" ~shard:0 ~epoch:3);
  Alcotest.(check int) "an audit accepts no shard" 2 (Lease.completed t);
  Alcotest.(check bool) "the accepted epoch still dedups" true
    (Lease.complete t ~worker:"b" ~shard:0 ~epoch:2 = `Duplicate);
  (* drain the rest *)
  (match Lease.acquire t ~now:25. ~worker:"b" with
  | `Assign { Lease.shard; epoch; _ } ->
      Alcotest.(check bool) "accepted" true (accepted Lease.First ~worker:"b" ~shard ~epoch)
  | _ -> Alcotest.fail "expected an assignment");
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
  let accepted ~worker ~shard ~epoch =
    match Lease.complete lease ~worker ~shard ~epoch with `Accepted _ -> true | _ -> false
  in
  (* worker b drains everything under live epochs, but c's speculative
     duplicate of shard 1 wins that one and fences b's result *)
  let rec drain now =
    match Lease.acquire lease ~now ~worker:"b" with
    | `Assign { Lease.shard; epoch; _ } ->
        let blob = run_one shard in
        (if shard <> 1 then
           Alcotest.(check bool) "accepted" true (accepted ~worker:"b" ~shard ~epoch)
         else
           match Lease.speculate lease ~now:(now +. 0.5) ~worker:"c" ~older_than:0.2 with
           | Some { Lease.shard = 1; epoch = dup; _ } ->
               Alcotest.(check bool) "duplicate accepted" true
                 (accepted ~worker:"c" ~shard ~epoch:dup);
               Alcotest.(check bool) "straggler fenced" true
                 (Lease.complete lease ~worker:"b" ~shard ~epoch = `Stale)
           | _ -> Alcotest.fail "expected a duplicate of shard 1");
        Hashtbl.replace blobs shard blob;
        drain (now +. 0.1)
    | `Finished -> ()
    | `Wait -> Alcotest.fail "unexpected wait"
  in
  drain 2.;
  (* an audit re-run of shard 0 completes without a second acceptance *)
  (match Lease.audit lease ~now:3. ~worker:"c" ~due:(fun shard -> shard = 0) with
  | Some { Lease.shard = 0; epoch; _ } -> (
      match Lease.complete lease ~worker:"c" ~shard:0 ~epoch with
      | `Accepted { Lease.kind = Lease.Audit; _ } -> ()
      | _ -> Alcotest.fail "the audit must complete as an audit")
  | _ -> Alcotest.fail "expected an audit lease on shard 0");
  (* worker a's zombie result arrives after the fact: fenced *)
  Alcotest.(check bool) "zombie fenced" true
    (Lease.complete lease ~worker:"a" ~shard:0 ~epoch:1 = `Stale);
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
                  { Fmc_audit.Audit.au_shard = 0; au_worker = "alice"; au_digest = "d0"; au_passed = true };
                  { Fmc_audit.Audit.au_shard = 2; au_worker = "bob"; au_digest = "d2"; au_passed = false };
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
let serve_campaign ?obs ?on_ready ?on_view ?checkpoint ?(audit_rate = 0.)
    ?(breaker = Breaker.default_config) ~ttl_s ~linger_s addr prep ~samples ~seed ~shard_size =
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
      Service.sched = { Sched.default_config with Sched.ttl_s; audit_rate; breaker };
    }
  in
  Service.serve ?obs ?on_ready ?on_view ~campaign:{ Service.spec; checkpoint; linger_s } config

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
        | Protocol.Job { shard; epoch; start; len; _ } -> (shard, epoch, start, len)
        | _ -> Alcotest.fail "expected a job"
      in
      Alcotest.(check int) "first lease epoch" 1 epoch;
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      let blob = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
      Thread.delay 1.6 (* past the TTL: the service expires the lease *);
      send conn (Protocol.Job_done { fingerprint; shard; epoch; tally = blob; quarantined = [] });
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
      let accepted = Worker.run wcfg ~scope:fingerprint ~resolve:(local e prep) in
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
  Alcotest.(check bool) "v5 refused" false (Protocol.accepts_version 5);
  Alcotest.(check int) "the current version is 6" 6 Protocol.version;
  Alcotest.(check bool) "v6 accepted" true (Protocol.accepts_version Protocol.version);
  Alcotest.(check bool) "future version refused" false
    (Protocol.accepts_version (Protocol.version + 1));
  (* The campaign fingerprint is part of the handshake contract and
     must not move with the wire version. *)
  Alcotest.(check int) "fingerprint version stays 3" 3 Protocol.fingerprint_version

(* The v5 digest extension rides Job_done and round-trips next to the
   v4 telemetry sections. *)
let test_digest_extension_roundtrip () =
  let msg =
    Protocol.Job_done
      { fingerprint = "fp"; shard = 1; epoch = 2; tally = "line one\n"; quarantined = [] }
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
        [ 3; 4; 5 ];
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
        | Protocol.Job { shard; epoch; start; len; _ }, ext -> ((shard, epoch, start, len), ext)
        | _ -> Alcotest.fail "expected a job"
      in
      (match ext.Protocol.ext_trace with
      | Some (tid, sid) ->
          Alcotest.(check string) "campaign trace id stamped"
            (Fmc_obs.Traceid.trace_id ~fingerprint)
            tid;
          Alcotest.(check string) "shard span id stamped"
            (Fmc_obs.Traceid.span_id ~fingerprint ~shard)
            sid
      | None -> Alcotest.fail "a job must carry trace ids");
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
        Protocol.encode_client_ext ~ext
          (Protocol.Job_heartbeat { fingerprint; shard; epoch; samples_done = 1 })
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
          (Protocol.Job_done
             {
               fingerprint;
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
      let accepted = Worker.run ~obs:wobs wcfg ~scope:fingerprint ~resolve:(local e prep) in
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

(* The retired lease messages: a Heartbeat or a Shard_done gets a
   Reject and changes no lease. The lease they name stays live, nothing
   is accepted, and its holder still renews and completes it with
   Job_heartbeat and Job_done. *)
let test_retired_messages_rejected () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 60 and shard_size = 30 and seed = 7 in
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
      let view = ref None and outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome :=
              Some
                (serve_campaign ~obs
                   ~on_view:(fun v -> view := Some v)
                   ~ttl_s:5.0 ~linger_s:0.5 addr prep ~samples ~seed ~shard_size))
          ()
      in
      let conn = Wire.conn (Wire.connect ~attempts:40 ~delay_s:0.05 addr) in
      send conn (Protocol.Hello { version = Protocol.version; worker = "raw"; fingerprint });
      (match recv conn with Protocol.Welcome _ -> () | _ -> Alcotest.fail "expected welcome");
      send conn Protocol.Request_shard;
      let shard, epoch, start, len =
        match recv conn with
        | Protocol.Job { shard; epoch; start; len; _ } -> (shard, epoch, start, len)
        | _ -> Alcotest.fail "expected a job"
      in
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      let tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
      let quarantined = sh.Campaign.sh_quarantined in
      let reply msg =
        send conn msg;
        recv conn
      in
      (match reply (Protocol.Heartbeat { shard; epoch; samples_done = 1 }) with
      | Protocol.Reject _ -> ()
      | _ -> Alcotest.fail "a heartbeat must be rejected");
      (match reply (Protocol.Shard_done { shard; epoch; tally; quarantined }) with
      | Protocol.Reject _ -> ()
      | _ -> Alcotest.fail "a shard_done must be rejected");
      let counter name =
        match Fmc_obs.Metrics.find (Fmc_obs.Metrics.snapshot reg) name with
        | Some (Fmc_obs.Metrics.Counter v) -> v
        | _ -> 0.
      in
      let health = (Option.get !view).Service.vw_health () in
      Alcotest.(check (pair int int)) "the lease still in flight, nothing accepted" (1, 0)
        (health.Service.h_in_flight, health.Service.h_shards_done);
      exact "no heartbeat reached the lease table" 0. (counter "fmc_dist_heartbeats_total");
      exact "no result fenced" 0. (counter "fmc_dist_stale_results_total");
      (match reply (Protocol.Job_heartbeat { fingerprint; shard; epoch; samples_done = 1 }) with
      | Protocol.Ack { accepted = true; _ } -> ()
      | _ -> Alcotest.fail "the holder's job_heartbeat must renew the lease");
      (match reply (Protocol.Job_done { fingerprint; shard; epoch; tally; quarantined }) with
      | Protocol.Ack { accepted = true; reason = "" } -> ()
      | _ -> Alcotest.fail "the holder's job_done must be accepted");
      (* The same client runs the other shard and is told the campaign
         is finished. *)
      (match reply Protocol.Request_shard with
      | Protocol.Job { shard; epoch; start; len; _ } -> (
          let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
          let tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
          match
            reply
              (Protocol.Job_done
                 { fingerprint; shard; epoch; tally; quarantined = sh.Campaign.sh_quarantined })
          with
          | Protocol.Ack { accepted = true; _ } -> ()
          | _ -> Alcotest.fail "the second shard must be accepted")
      | _ -> Alcotest.fail "expected the second job");
      (match reply Protocol.Request_shard with
      | Protocol.No_work { finished = true } -> ()
      | _ -> Alcotest.fail "expected the campaign finished");
      send conn Protocol.Goodbye;
      Wire.close conn;
      Thread.join server;
      let shards, _ = finished_report !outcome in
      match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
      | Error msg -> Alcotest.failf "merge failed: %s" msg
      | Ok dist ->
          let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
          check_reports_equal reference.Campaign.report dist)

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
        | Protocol.Job { shard; epoch; start; len; _ } -> (shard, epoch, start, len)
        | _ -> Alcotest.fail "expected a job"
      in
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      send_with_digest conn ~digest:"feedfacefeedface"
        (Protocol.Job_done
           {
             fingerprint;
             shard;
             epoch;
             tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot;
             quarantined = [];
           });
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
        | Protocol.Job { shard; epoch; start; len; _ } -> (shard, epoch, start, len)
        | _ -> Alcotest.fail "expected a second job"
      in
      let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
      let lie = mutate_tally (Ssf.Tally.to_string sh.Campaign.sh_snapshot) in
      send_with_digest conn
        ~digest:(Fmc_audit.Audit.Check.result_digest ~tally:lie ~quarantined:[])
        (Protocol.Job_done { fingerprint; shard; epoch; tally = lie; quarantined = [] });
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
      let accepted = Worker.run wcfg ~scope:fingerprint ~resolve:(local e prep) in
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
(* Record framing: every codec written through Fmc_prelude.Record keeps
   its bytes (compared with files written before the codecs shared it,
   under test/ref/) and turns every malformed input into an error. *)

let tally_fixture =
  {
    Ssf.Tally.snap_total = 1000;
    snap_trace_every = 250;
    snap_processed = 500;
    snap_strata = [ (Sampler.Vulnerable, 0.0261); (Sampler.Rest, 0.9739) ];
    snap_accs = [ (250, 0.125, 3.5); (250, 1.5e-3, 0.0625) ];
    snap_pess = [ (250, 0.25, 4.75); (250, 2e-3, 0.125) ];
    snap_masked = 430;
    snap_mem_only = 20;
    snap_resumed = 47;
    snap_quarantined = 3;
    snap_q_crashed = 2;
    snap_q_timed_out = 1;
    snap_successes = 12;
    snap_by_direct = 7;
    snap_by_comb = 5;
    snap_sum_w = 498.75;
    snap_sum_w2 = 1234.5625;
    snap_contributions = [ (("pc", 3), 0.0125); (("mpu_cfg", 0), 1. /. 3.) ];
    snap_trace = [ (250, 0.01); (500, 0.0123456789) ];
  }

let crashed_fixture =
  {
    Campaign.q_index = 123;
    q_disposition = Campaign.Crashed "Failure(\"boom with spaces\")";
    q_sample = sample_fixture;
  }

let timed_out_fixture =
  {
    Campaign.q_index = 124;
    q_disposition = Campaign.Timed_out;
    q_sample = { sample_fixture with Sampler.stratum = Sampler.Rest };
  }

let ckpt_fixture =
  {
    Ckpt.st_fingerprint =
      "v3 strategy=mixed benchmark=write samples=1000 seed=7 shard_size=250 budget=-";
    st_shards =
      [
        (0, Ssf.Tally.to_string tally_fixture);
        (2, Ssf.Tally.to_string { tally_fixture with Ssf.Tally.snap_processed = 250 });
      ];
    st_quarantined = [ crashed_fixture; timed_out_fixture ];
    st_audit =
      {
        Ckpt.au_entries =
          [
            {
              Fmc_audit.Audit.au_shard = 0;
              au_worker = "alice";
              au_digest = "00ff00ff";
              au_passed = true;
            };
            {
              Fmc_audit.Audit.au_shard = 2;
              au_worker = "bob the builder";
              au_digest = "d2d2";
              au_passed = false;
            };
          ];
        au_banned = [ "mallory"; "eve two" ];
      };
  }

let telemetry_fixture =
  {
    Fmc_obs.Telemetry.tm_trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
    tm_base_wall = 1760000000.125;
    tm_metrics =
      [
        ("fmc_samples_total", ("samples evaluated", Fmc_obs.Metrics.Counter 1234.));
        ("fmc_odd_gauge", ("help with spaces, 100% and\ta tab", Fmc_obs.Metrics.Gauge 0.5));
        ( "fmc_latency_seconds",
          ( "latency",
            Fmc_obs.Metrics.Histo
              {
                Fmc_obs.Metrics.buckets = [| 0.001; 0.01 |];
                counts = [| 1; 2; 3 |];
                sum = 0.0625;
                count = 6;
              } ) );
      ];
    tm_spans =
      [
        {
          Fmc_obs.Telemetry.ss_span_id = "00f067aa0ba902b7";
          ss_event =
            {
              Fmc_obs.Span.ev_name = "shard 3";
              ev_cat = "dist";
              ev_tid = 1;
              ev_ts_us = 5.;
              ev_dur_us = 3.25;
            };
        };
        {
          Fmc_obs.Telemetry.ss_span_id = "";
          ss_event =
            { Fmc_obs.Span.ev_name = "-"; ev_cat = ""; ev_tid = 0; ev_ts_us = 0.; ev_dur_us = 0. };
        };
      ];
  }

let spec_fixture =
  {
    Protocol.sp_benchmark = "write";
    sp_strategy = "mixed";
    sp_samples = 1000;
    sp_seed = 7;
    sp_shard_size = 250;
    sp_sample_budget = Some 4000;
    sp_fault_model = "seu-burst:bits=4";
  }

let status_fixture =
  {
    Protocol.st_fingerprint = "v3 strategy=mixed benchmark=write";
    st_state = Protocol.Running;
    st_position = 0;
    st_queue_len = 2;
    st_samples_done = 500;
    st_samples_total = 1000;
    st_rate = 1234.5;
    st_eta_s = 0.40625;
    st_detail = "2 workers";
  }

let tally_blob = Ssf.Tally.to_string tally_fixture
let fixture_fp = ckpt_fixture.Ckpt.st_fingerprint

let client_fixtures =
  [
    Protocol.Hello { version = Protocol.version; worker = "w1"; fingerprint = fixture_fp };
    Protocol.Request_shard;
    Protocol.Heartbeat { shard = 3; epoch = 2; samples_done = 40 };
    Protocol.Shard_done
      {
        shard = 3;
        epoch = 2;
        tally = tally_blob;
        quarantined = [ crashed_fixture; timed_out_fixture ];
      };
    Protocol.Fetch_report;
    Protocol.Goodbye;
    Protocol.Submit { spec = spec_fixture };
    Protocol.Status_req { fingerprint = fixture_fp };
    Protocol.Cancel { fingerprint = fixture_fp };
    Protocol.Job_heartbeat { fingerprint = fixture_fp; shard = 1; epoch = 1; samples_done = 7 };
    Protocol.Job_done
      {
        fingerprint = fixture_fp;
        shard = 1;
        epoch = 1;
        tally = tally_blob;
        quarantined = [ timed_out_fixture ];
      };
  ]

let server_fixtures =
  [
    Protocol.Welcome { version = Protocol.version };
    Protocol.No_work { finished = true };
    Protocol.No_work { finished = false };
    Protocol.Ack { accepted = true; reason = "" };
    Protocol.Ack { accepted = false; reason = "stale epoch" };
    Protocol.Report
      {
        shards = [ (0, tally_blob); (2, tally_blob) ];
        quarantined = [ crashed_fixture ];
        elapsed_s = 1.5;
      };
    Protocol.Reject { reason = "fingerprint mismatch" };
    Protocol.Retry_later { cooldown_s = 2.5 };
    Protocol.Job { spec = spec_fixture; shard = 2; epoch = 3; start = 500; len = 250 };
    Protocol.Submitted { fingerprint = fixture_fp; position = 1; cached = false };
    Protocol.Submitted { fingerprint = fixture_fp; position = 0; cached = true };
    Protocol.Sched_rejected { retry_after_s = 30.; reason = "queue full" };
    Protocol.Status
      {
        entries =
          [ status_fixture; { status_fixture with Protocol.st_state = Protocol.Queued; st_detail = "" } ];
      };
  ]

let telemetry_ext = Some (Fmc_obs.Telemetry.encode telemetry_fixture)

let client_exts =
  [
    Protocol.no_extension;
    { Protocol.no_extension with Protocol.ext_telemetry = telemetry_ext };
    { Protocol.no_extension with Protocol.ext_digest = Some "0123456789abcdef" };
    {
      Protocol.no_extension with
      Protocol.ext_telemetry = telemetry_ext;
      ext_digest = Some "0123456789abcdef";
    };
  ]

let server_exts =
  [
    Protocol.no_extension;
    {
      Protocol.no_extension with
      Protocol.ext_trace = Some ("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7");
    };
  ]

(* The extension sections a decoder returns for a message: only those
   that ride on its type. *)
let client_ext_of msg (ext : Protocol.extension) =
  match msg with
  | Protocol.Shard_done _ | Protocol.Job_done _ ->
      { Protocol.no_extension with ext_digest = ext.ext_digest; ext_telemetry = ext.ext_telemetry }
  | Protocol.Heartbeat _ | Protocol.Job_heartbeat _ ->
      { Protocol.no_extension with ext_telemetry = ext.ext_telemetry }
  | _ -> Protocol.no_extension

let server_ext_of msg (ext : Protocol.extension) =
  match msg with
  | Protocol.Job _ -> { Protocol.no_extension with ext_trace = ext.ext_trace }
  | _ -> Protocol.no_extension

(* Every message under every extension: (tag, payload, what it decodes to). *)
let protocol_cases () =
  let cases encode decoded msgs exts =
    List.concat_map
      (fun m ->
        List.map
          (fun ext ->
            let tag, payload = encode ext m in
            (tag, payload, decoded m ext))
          exts)
      msgs
  in
  cases
    (fun ext -> Protocol.encode_client_ext ~ext)
    (fun m ext -> `Client (m, client_ext_of m ext))
    client_fixtures client_exts
  @ cases
      (fun ext -> Protocol.encode_server_ext ~ext)
      (fun m ext -> `Server (m, server_ext_of m ext))
      server_fixtures server_exts

(* The cases as "<client|server> <tag> <length>\n<payload>" entries. *)
let protocol_golden () =
  String.concat ""
    (List.map
       (fun (tag, payload, decoded) ->
         Printf.sprintf "%s %c %d\n%s"
           (match decoded with `Client _ -> "client" | `Server _ -> "server")
           tag (String.length payload) payload)
       (protocol_cases ()))

let ref_bytes name = In_channel.with_open_bin (Filename.concat "ref" name) In_channel.input_all
let write_bytes path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let with_temp suffix f =
  let path = Filename.temp_file "fmc-record" suffix in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".tmp" ])
    (fun () -> f path)

let no_signals = { Campaign.default_config with Campaign.handle_signals = false }

(* The checkpoint the golden file holds: an 80-sample campaign stopped
   after 40. *)
let golden_campaign ~path =
  let config = { no_signals with Campaign.checkpoint_path = Some path } in
  Campaign.run ~config ~trace_every:10 ~stop:(fun i -> i >= 40) (engine ())
    (prepare Sampler.default_mixed) ~samples:80 ~seed:11

let test_golden_bytes () =
  let check_bytes what expected actual =
    Alcotest.(check bool) (what ^ " bytes unchanged") true (String.equal expected actual)
  in
  let tally = ref_bytes "codec-tally.txt" in
  check_bytes "tally" tally (Ssf.Tally.to_string tally_fixture);
  Alcotest.(check bool) "tally decodes to its input" true
    (Ssf.Tally.of_string tally = Ok tally_fixture);
  let telemetry = ref_bytes "codec-telemetry.txt" in
  check_bytes "telemetry" telemetry (Fmc_obs.Telemetry.encode telemetry_fixture);
  Alcotest.(check bool) "telemetry decodes to its input" true
    (Fmc_obs.Telemetry.decode telemetry = Ok telemetry_fixture);
  let protocol = ref_bytes "codec-protocol.txt" in
  check_bytes "protocol" protocol (protocol_golden ());
  (* Decode the recorded payloads, not the fresh ones. *)
  let pos = ref 0 in
  List.iter
    (fun (tag, _, decoded) ->
      let eol = String.index_from protocol !pos '\n' in
      let len = Scanf.sscanf (String.sub protocol !pos (eol - !pos)) "%_s %_c %d" Fun.id in
      let payload = String.sub protocol (eol + 1) len in
      pos := eol + 1 + len;
      Alcotest.(check bool) "recorded message decodes to its input" true
        (match decoded with
        | `Client m -> Protocol.decode_client_ext tag payload = Ok m
        | `Server m -> Protocol.decode_server_ext tag payload = Ok m))
    (protocol_cases ());
  Alcotest.(check int) "every recorded message read" (String.length protocol) !pos;
  let dist = ref_bytes "codec-dist.ckpt" in
  with_temp ".ckpt" (fun path ->
      Ckpt.save ~path ckpt_fixture;
      check_bytes "service checkpoint" dist (In_channel.with_open_bin path In_channel.input_all);
      write_bytes path dist;
      Alcotest.(check bool) "service checkpoint decodes to its input" true
        (Ckpt.load ~path = Ok ckpt_fixture));
  let campaign = ref_bytes "codec-campaign.ckpt" in
  with_temp ".ckpt" (fun path ->
      let half = golden_campaign ~path in
      Alcotest.(check bool) "stopped" true (half.Campaign.status = Campaign.Interrupted);
      check_bytes "campaign checkpoint" campaign
        (In_channel.with_open_bin path In_channel.input_all);
      (* Resuming the recorded bytes continues the same campaign. *)
      write_bytes path campaign;
      let resumed =
        Campaign.resume ~config:no_signals (engine ()) (prepare Sampler.default_mixed) ~path
      in
      let whole =
        Campaign.run ~config:no_signals ~trace_every:10 (engine ()) (prepare Sampler.default_mixed)
          ~samples:80 ~seed:11
      in
      Alcotest.(check string) "resumed report"
        (Export.report_json whole.Campaign.report)
        (Export.report_json resumed.Campaign.report))

(* -- malformed input ------------------------------------------------------ *)

(* What a decoder under test made of a text. *)
type verdict = Accepted | Refused | Raised of string

let verdict decode text =
  match decode text with
  | true -> Accepted
  | false -> Refused
  | exception e -> Raised (Printexc.to_string e)

(* [expect_refused what decode texts]: every text is refused, and none
   raises. *)
let expect_refused what decode =
  List.iter (fun t ->
      match verdict decode t with
      | Refused -> ()
      | Accepted -> Alcotest.failf "%s: accepted %S" what t
      | Raised e -> Alcotest.failf "%s: raised %s on %S" what e t)

let expect_no_raise what decode =
  List.iter (fun t ->
      match verdict decode t with
      | Refused | Accepted -> ()
      | Raised e -> Alcotest.failf "%s: raised %s on %S" what e t)

let truncations s = List.init (String.length s) (fun k -> String.sub s 0 k)

(* Each position replaced by a different byte. *)
let mutations s =
  let rng = Random.State.make [| 19 |] in
  List.init (String.length s) (fun i ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr ((Char.code s.[i] + 1 + Random.State.int rng 255) land 0xff));
      Bytes.to_string b)

(* [s] with the count of each count line set to -1, one line at a time.
   A count line is "kw n" or "kw id n" with [kw] in [kws]. *)
let negated_counts kws s =
  let lines = String.split_on_char '\n' s in
  List.concat
    (List.mapi
       (fun i line ->
         match String.split_on_char ' ' line with
         | ([ kw; n ] | [ kw; _; n ]) when List.mem kw kws && int_of_string_opt n <> None ->
             let line' = String.sub line 0 (String.length line - String.length n) ^ "-1" in
             [ String.concat "\n" (List.mapi (fun j l -> if j = i then line' else l) lines) ]
         | _ -> [])
       lines)

let reseal body = body ^ Printf.sprintf "crc %08x\n" (Fmc_prelude.Crc32.string body)

let unseal sealed =
  let n = String.length sealed in
  String.sub sealed 0 (String.rindex_from sealed (n - 2) '\n' + 1)

let test_unsealed_codecs_refuse () =
  List.iter
    (fun (what, enc, decode, kws) ->
      expect_refused (what ^ " truncation") decode (truncations enc);
      let negs = negated_counts kws enc in
      Alcotest.(check int) (what ^ " count lines") (List.length kws) (List.length negs);
      expect_refused (what ^ " count -1") decode negs;
      (* Unsealed, so a changed digit is another valid encoding: a
         mutation only must not raise. *)
      expect_no_raise (what ^ " mutation") decode (mutations enc))
    [
      ( "tally",
        Ssf.Tally.to_string tally_fixture,
        (fun s -> Result.is_ok (Ssf.Tally.of_string s)),
        [ "strata"; "contributions"; "trace" ] );
      ( "telemetry",
        Fmc_obs.Telemetry.encode telemetry_fixture,
        (fun s -> Result.is_ok (Fmc_obs.Telemetry.decode s)),
        [ "metrics"; "spans" ] );
    ]

let test_protocol_refuses () =
  let sections (e : Protocol.extension) =
    List.length
      (List.filter Fun.id [ e.ext_trace <> None; e.ext_telemetry <> None; e.ext_digest <> None ])
  in
  let keeps a b = a = None || a = b in
  (* [e] holds some of [of_]'s sections, fewer than all. *)
  let fewer_sections ~of_ (e : Protocol.extension) =
    sections e < sections of_
    && keeps e.ext_trace of_.Protocol.ext_trace
    && keeps e.ext_telemetry of_.ext_telemetry
    && keeps e.ext_digest of_.ext_digest
  in
  let count_kws = [ "tally"; "quarantined"; "telemetry"; "shards"; "shard"; "entries" ] in
  let negs = ref 0 in
  List.iter
    (fun (tag, payload, decoded) ->
      let decode t =
        match decoded with
        | `Client (m, ext) -> (
            match Protocol.decode_client_ext tag t with
            | Ok (m', e') -> Some (m' = m, fewer_sections ~of_:ext e')
            | Error _ -> None)
        | `Server (m, ext) -> (
            match Protocol.decode_server_ext tag t with
            | Ok (m', e') -> Some (m' = m, fewer_sections ~of_:ext e')
            | Error _ -> None)
      in
      let what = Printf.sprintf "protocol %C" tag in
      (* A cut payload is refused or, cut between trailing extension
         sections, is the same message with fewer of them. *)
      expect_refused (what ^ " truncation")
        (fun t -> match decode t with None | Some (true, true) -> false | Some _ -> true)
        (truncations payload);
      let ok t = decode t <> None in
      let neg = negated_counts count_kws payload in
      negs := !negs + List.length neg;
      expect_refused (what ^ " count -1") ok neg;
      expect_no_raise (what ^ " mutation") ok (mutations payload))
    (protocol_cases ());
  Alcotest.(check int) "count lines exercised" 34 !negs

let test_sealed_codecs_refuse () =
  let e = engine () and prep = prepare Sampler.default_mixed in
  with_temp ".ckpt" (fun path ->
      let load_ckpt bytes =
        write_bytes path bytes;
        Result.is_ok (Ckpt.load ~path)
      in
      (* Campaign.resume reports a bad checkpoint as Checkpoint_corrupt
         and nothing else. *)
      let resume bytes =
        write_bytes path bytes;
        match Campaign.resume ~config:no_signals e prep ~path with
        | _ -> true
        | exception Campaign.Checkpoint_corrupt { path = p; _ } when p = path -> false
      in
      List.iter
        (fun (what, bytes, decode, kws) ->
          Alcotest.(check bool) (what ^ " loads") true (decode bytes);
          expect_refused (what ^ " truncation") decode (truncations bytes);
          expect_refused (what ^ " mutation") decode (mutations bytes);
          (* Re-sealed, so the parser rather than the CRC must refuse. *)
          let negs = List.map reseal (negated_counts kws (unseal bytes)) in
          Alcotest.(check bool) (what ^ " count lines") true (List.length negs >= List.length kws);
          expect_refused (what ^ " count -1") decode negs)
        [
          ( "service checkpoint",
            ref_bytes "codec-dist.ckpt",
            load_ckpt,
            [ "shards"; "shard"; "quarantined"; "audits"; "banned" ] );
          ( "campaign checkpoint",
            ref_bytes "codec-campaign.ckpt",
            resume,
            [ "strata"; "contributions"; "trace" ] );
        ])

(* -- appended checkpoints --------------------------------------------------- *)

(* A snapshot, then two deltas: shard 2 accepted with its quarantine
   entry, audit entry and banned list, then shard 0's audit passed. The
   banned names are lines a reader that searched for a marker would stop
   at, in the snapshot and in a delta alike. *)
let passed_0, unpassed_2 =
  match ckpt_fixture.Ckpt.st_audit.Ckpt.au_entries with
  | [ a; b ] -> (a, b)
  | _ -> assert false

let append_banned = [ "crc 00000000"; "end"; "mallory" ]

let append_states =
  let with_audit entries banned =
    { ckpt_fixture with Ckpt.st_audit = { Ckpt.au_entries = entries; au_banned = banned } }
  in
  let unpassed_0 = { passed_0 with Fmc_audit.Audit.au_passed = false } in
  [
    {
      (with_audit [ unpassed_0 ] [ "crc 00000000"; "end" ]) with
      Ckpt.st_shards = [ List.hd ckpt_fixture.Ckpt.st_shards ];
      st_quarantined = [ crashed_fixture ];
    };
    with_audit [ unpassed_0; unpassed_2 ] append_banned;
    with_audit [ passed_0; unpassed_2 ] append_banned;
  ]

(* Write the appended fixture; returns the offset each delta starts at. *)
let write_appended path =
  let size () = (Unix.stat path).Unix.st_size in
  Ckpt.save ~path (List.hd append_states);
  let d1 = size () in
  Ckpt.append ~path
    ~shard:(List.nth ckpt_fixture.Ckpt.st_shards 1)
    ~quarantined:[ timed_out_fixture ] ~banned:append_banned unpassed_2;
  let d2 = size () in
  Ckpt.append ~path passed_0;
  (d1, d2)

let test_appended_checkpoint () =
  with_temp ".ckpt" (fun path ->
      let d1, d2 = write_appended path in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "appended checkpoint bytes unchanged" true
        (String.equal (ref_bytes "codec-dist-append.ckpt") bytes);
      let read text =
        write_bytes path text;
        Ckpt.read ~path
      in
      let describe = function
        | Error m -> "refused: " ^ m
        | Ok (st, shape) -> (
            (match shape with `Snapshot -> "snapshot " | `Appended -> "appended ")
            ^
            match List.find_index (( = ) st) append_states with
            | Some k -> Printf.sprintf "state %d" k
            | None -> "another state")
      in
      let expect what got want =
        if got <> want then
          Alcotest.failf "%s: got %s, want %s" what (describe got) (describe want)
      in
      let s0, s1, s2 =
        match append_states with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      expect "whole file" (read bytes) (Ok (s2, `Appended));
      expect "cut after the snapshot" (read (String.sub bytes 0 d1)) (Ok (s0, `Snapshot));
      expect "cut after the first delta" (read (String.sub bytes 0 d2)) (Ok (s1, `Appended));
      (* What a damaged byte at [i] leaves: the snapshot refuses it, and a
         delta is dropped with every delta after it. *)
      let survivor i =
        if i < d1 then None else if i < d2 then Some s0 else Some s1
      in
      let check_each what texts =
        List.iteri
          (fun i text ->
            match (survivor i, read text) with
            | None, Error _ -> ()
            | Some s, Ok (st, _) when st = s -> ()
            | want, got ->
                let want = match want with None -> Error "anything" | Some s -> Ok (s, `Appended) in
                expect (Printf.sprintf "%s at byte %d of %d" what i (String.length bytes)) got want)
          texts
      in
      check_each "cut" (truncations bytes);
      check_each "changed byte" (mutations bytes))

(* [~sync] only adds fsyncs: a synced snapshot and delta are the bytes
   of unsynced ones. *)
let test_sync_same_bytes () =
  let write ?sync path =
    Fmc_prelude.Record.write_sealed ?sync ~path "faultmc-test 1\nitems 1\nalpha\n";
    Fmc_prelude.Record.append_sealed ?sync ~path "beta\n";
    In_channel.with_open_bin path In_channel.input_all
  in
  with_temp ".rec" (fun plain ->
      with_temp ".rec" (fun synced ->
          Alcotest.(check string) "same bytes" (write plain) (write ~sync:true synced)))

(* A CRC-valid result frame whose tally count is not a count is a decode
   error charged to the sender, whatever the malformed number: the
   service answers Reject and trips a one-failure breaker, so the next
   Hello under that name is parked. *)
let test_malformed_count_charged () =
  let prep = prepare Sampler.default_mixed in
  let samples = 60 and shard_size = 30 and seed = 5 in
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
      let control = ref None in
      let server =
        Thread.create
          (fun () ->
            serve_campaign
              ~on_ready:(fun c -> control := Some c)
              ~breaker:{ Breaker.failure_threshold = 1; cooldown_s = 60. }
              ~ttl_s:5. ~linger_s:0. addr prep ~samples ~seed ~shard_size)
          ()
      in
      let hello worker =
        let conn = Wire.conn (Wire.connect ~attempts:40 ~delay_s:0.1 addr) in
        send conn (Protocol.Hello { version = Protocol.version; worker; fingerprint });
        (conn, recv conn)
      in
      List.iter
        (fun (worker, count) ->
          let conn, reply = hello worker in
          (match reply with Protocol.Welcome _ -> () | _ -> Alcotest.fail "expected welcome");
          Wire.write_frame conn ~tag:'D'
            (Printf.sprintf "shard 0 epoch 1\ntally %s\nquarantined 0\n" count);
          (match recv conn with
          | Protocol.Reject _ -> ()
          | _ -> Alcotest.failf "tally %s must be rejected" count);
          Wire.close conn;
          let conn, reply = hello worker in
          (match reply with
          | Protocol.Retry_later _ -> ()
          | _ -> Alcotest.failf "tally %s must charge %s's breaker" count worker);
          Wire.close conn)
        [ ("garbled", "x"); ("negative", "-1") ];
      (match !control with
      | Some c -> c.Service.request_drain ()
      | None -> Alcotest.fail "the service never became ready");
      Thread.join server)

(* A Report whose shard count is negative is a protocol error the fetch
   returns, not an exception. *)
let test_fetch_report_negative_count () =
  let sock_path = Filename.temp_file "fmc-dist" ".sock" in
  Sys.remove sock_path;
  let addr = Wire.Unix_path sock_path in
  let listener = Wire.listen addr in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      if Sys.file_exists sock_path then Sys.remove sock_path)
    (fun () ->
      let fake_service () =
        let fd, _ = Unix.accept listener in
        let conn = Wire.conn fd in
        Fun.protect
          ~finally:(fun () -> Wire.close conn)
          (fun () ->
            ignore (Wire.read_frame conn : char * string);
            let tag, payload =
              Protocol.encode_server (Protocol.Welcome { version = Protocol.version })
            in
            Wire.write_frame conn ~tag payload;
            ignore (Wire.read_frame conn : char * string);
            Wire.write_frame conn ~tag:'P' "elapsed 0x0p+0\nshards -1\nquarantined 0\n";
            try ignore (Wire.read_frame conn : char * string) with Wire.Closed -> ())
      in
      let server = Thread.create fake_service () in
      let fcfg = Worker.default_config ~addr ~worker_name:"fetcher" in
      let result =
        match Worker.fetch_report ~poll_s:0.05 ~timeout_s:5. fcfg ~fingerprint:"any" with
        | r -> Ok r
        | exception e -> Error e
      in
      Thread.join server;
      match result with
      | Ok (Error (Worker.Fetch_protocol _)) -> ()
      | Ok (Error e) -> Alcotest.failf "unexpected error: %s" (Worker.fetch_error_message e)
      | Ok (Ok _) -> Alcotest.fail "a negative shard count must not fetch a report"
      | Error e -> Alcotest.failf "fetch_report raised %s" (Printexc.to_string e))

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
          Alcotest.test_case "retired lease messages rejected" `Quick
            test_retired_messages_rejected;
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
      ( "record",
        [
          Alcotest.test_case "golden bytes round-trip" `Quick test_golden_bytes;
          Alcotest.test_case "unsealed codecs refuse malformed input" `Quick
            test_unsealed_codecs_refuse;
          Alcotest.test_case "protocol refuses malformed payloads" `Quick test_protocol_refuses;
          Alcotest.test_case "sealed files refuse malformed input" `Quick
            test_sealed_codecs_refuse;
          Alcotest.test_case "appended checkpoint drops only damaged deltas" `Quick
            test_appended_checkpoint;
          Alcotest.test_case "sync writes the same bytes" `Quick test_sync_same_bytes;
          Alcotest.test_case "malformed count charged to the sender" `Quick
            test_malformed_count_charged;
          Alcotest.test_case "fetch_report returns a negative count's error" `Quick
            test_fetch_report_negative_count;
        ] );
    ]
