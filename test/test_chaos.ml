(* Chaos-hardening tests: CRC-32 vectors and frame rejection, reconnect
   backoff jitter bounds, the circuit breaker state machine under a fake
   clock, fault-plan parsing, and the headline
   property — a full loopback campaign pushed through the deterministic
   fault-injection proxy (bit flips, duplicated and severed chunks,
   periodic partitions, plus a worker dying mid-shard and a malicious
   client tripping a breaker) still merges to a report byte-identical
   to the fault-free single-process reference. *)

module Programs = Fmc_isa.Programs
module Rng = Fmc_prelude.Rng
module Crc32 = Fmc_prelude.Crc32
module Metrics = Fmc_obs.Metrics
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

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check bool) "order matters" true (Crc32.string "ab" <> Crc32.string "ba")

let test_crc32_extend_composition () =
  let a = "the quick brown fox" and b = " jumps over the lazy dog" in
  Alcotest.(check int) "extend composes"
    (Crc32.string (a ^ b))
    (Crc32.extend (Crc32.string a) b);
  let buf = Bytes.of_string (a ^ b) in
  Alcotest.(check int) "extend_sub matches extend"
    (Crc32.string b)
    (Crc32.extend_sub 0 buf ~pos:(String.length a) ~len:(String.length b))

(* ------------------------------------------------------------------ *)
(* Wire frames: round-trip, corruption rejection *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* Pull the raw frame bytes a writer produced so the test can corrupt
   them before replaying them into a reader. *)
let raw_frame_of ~tag payload =
  with_socketpair (fun a b ->
      Wire.write_frame (Wire.conn a) ~tag payload;
      let buf = Bytes.create 4096 in
      let n = Unix.read b buf 0 4096 in
      Bytes.sub buf 0 n)

let feed_and_read raw =
  with_socketpair (fun a b ->
      ignore (Unix.write a raw 0 (Bytes.length raw));
      Wire.read_frame_raw (Wire.conn b))

let test_frame_roundtrip () =
  let payload = "hello\nworld\x00binary\xff" in
  match feed_and_read (raw_frame_of ~tag:'H' payload) with
  | `Ok (tag, p) ->
      Alcotest.(check char) "tag" 'H' tag;
      Alcotest.(check string) "payload" payload p
  | `Corrupt _ -> Alcotest.fail "clean frame flagged corrupt"

let test_frame_corruption_rejected () =
  let payload = "fingerprint v2 strategy=mixed seed=7" in
  let raw = raw_frame_of ~tag:'H' payload in
  (* Flip one payload bit: framing survives, checksum must not. *)
  let i = Bytes.length raw - 3 in
  Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x10));
  (match feed_and_read raw with
  | `Corrupt (tag, _) -> Alcotest.(check char) "tag still readable" 'H' tag
  | `Ok _ -> Alcotest.fail "bit flip not detected");
  (* And the raising variant raises the typed error. *)
  with_socketpair (fun a b ->
      ignore (Unix.write a raw 0 (Bytes.length raw));
      match Wire.read_frame (Wire.conn b) with
      | _ -> Alcotest.fail "expected Protocol_error"
      | exception Wire.Protocol_error _ -> ())

let test_oversized_frame_rejected () =
  with_socketpair (fun a b ->
      let header = Bytes.create 5 in
      Bytes.set_int32_be header 0 0x7fffffffl;
      Bytes.set header 4 'H';
      ignore (Unix.write a header 0 5);
      match Wire.read_frame_raw (Wire.conn b) with
      | _ -> Alcotest.fail "expected Protocol_error"
      | exception Wire.Protocol_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Reconnect backoff *)

let test_backoff_jitter_bounds () =
  let retry = { Worker.base_s = 0.1; cap_s = 2.0; max_attempts = 10; budget_s = 60. } in
  let rng = Rng.substream ~seed:99L ~shard:0 in
  let prev = ref retry.Worker.base_s in
  let saw_growth = ref false in
  for _ = 1 to 500 do
    let hi = Float.min retry.Worker.cap_s (Float.max (0.15) (!prev *. 3.)) in
    let s = Worker.next_backoff rng retry ~prev:!prev in
    Alcotest.(check bool) "above base" true (s >= retry.Worker.base_s);
    Alcotest.(check bool) "below cap" true (s <= retry.Worker.cap_s);
    Alcotest.(check bool) "below decorrelated ceiling" true (s <= hi +. 1e-9);
    if s > !prev then saw_growth := true;
    prev := s
  done;
  Alcotest.(check bool) "backoff actually grows" true !saw_growth;
  (* Same substream, same schedule: the sleeps are replayable. *)
  let a = Rng.substream ~seed:7L ~shard:1 and b = Rng.substream ~seed:7L ~shard:1 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "deterministic"
      (Worker.next_backoff a retry ~prev:0.3)
      (Worker.next_backoff b retry ~prev:0.3)
  done

(* ------------------------------------------------------------------ *)
(* Circuit breaker under a fake clock *)

let test_breaker_lifecycle () =
  let b = Breaker.create { Breaker.failure_threshold = 3; cooldown_s = 10. } in
  Alcotest.(check bool) "starts closed" true (Breaker.state b ~now:0. = Breaker.Closed);
  Breaker.record_failure b ~now:1.;
  Breaker.record_failure b ~now:2.;
  Alcotest.(check bool) "below threshold stays closed" true (Breaker.allow b ~now:2.);
  (* A success resets the consecutive count. *)
  Breaker.record_success b ~now:3.;
  Breaker.record_failure b ~now:4.;
  Breaker.record_failure b ~now:5.;
  Alcotest.(check bool) "reset count keeps it closed" true (Breaker.allow b ~now:5.);
  Breaker.record_failure b ~now:6.;
  Alcotest.(check bool) "third consecutive failure trips" true
    (Breaker.state b ~now:6. = Breaker.Open);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now:10.);
  Alcotest.(check (float 1e-9)) "cooldown remaining" 6. (Breaker.cooldown_remaining b ~now:10.);
  (* Cooldown elapses: half-open admits exactly one probe. *)
  Alcotest.(check bool) "half-open after cooldown" true
    (Breaker.state b ~now:16.5 = Breaker.Half_open);
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b ~now:16.5);
  Alcotest.(check bool) "second probe refused" false (Breaker.allow b ~now:16.6);
  (* Probe failure re-opens for a fresh cooldown. *)
  Breaker.record_failure b ~now:17.;
  Alcotest.(check bool) "probe failure re-opens" true (Breaker.state b ~now:17. = Breaker.Open);
  Alcotest.(check int) "second trip" 2 (Breaker.trips b);
  (* Next window's probe succeeds and closes it. *)
  Alcotest.(check bool) "next probe admitted" true (Breaker.allow b ~now:28.);
  Breaker.record_success b ~now:28.;
  Alcotest.(check bool) "probe success closes" true (Breaker.state b ~now:28. = Breaker.Closed);
  Alcotest.(check bool) "closed serves again" true (Breaker.allow b ~now:28.)

(* ------------------------------------------------------------------ *)
(* Fault-plan grammar *)

let test_plan_parse_roundtrip () =
  let src = "delay p=0.1 min=0.005 max=0.05\nbitflip p=0.02; dup p=0.01\n# comment\ndrop p=0.005\ntruncate p=0.01\npartition every=5 for=1\nlie p=0.3" in
  match Fmc_chaos.Plan.parse src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok plan ->
      Alcotest.(check int) "clauses" 7 (List.length plan.Fmc_chaos.Plan.faults);
      (match Fmc_chaos.Plan.parse (Fmc_chaos.Plan.to_string plan) with
      | Ok plan' ->
          Alcotest.(check string) "round-trips"
            (Fmc_chaos.Plan.to_string plan)
            (Fmc_chaos.Plan.to_string plan')
      | Error msg -> Alcotest.failf "re-parse failed: %s" msg)

let test_plan_parse_rejects () =
  let bad =
    [
      "bitflip p=1.5";  (* probability out of range *)
      "warp p=0.1";  (* unknown keyword *)
      "delay p=0.1 min=0.2 max=0.1";  (* min > max *)
      "partition every=1 for=2";  (* window wider than period *)
      "drop";  (* missing parameter *)
      "drop p=x";  (* not a number *)
      "lie p=1.5";  (* probability out of range *)
      "lie";  (* missing parameter *)
    ]
  in
  List.iter
    (fun src ->
      match Fmc_chaos.Plan.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad plan %S" src)
    bad

(* ------------------------------------------------------------------ *)
(* Loopback campaigns through the chaos proxy *)

let send conn msg =
  let tag, payload = Protocol.encode_client msg in
  Wire.write_frame conn ~tag payload

let recv conn =
  let tag, payload = Wire.read_frame conn in
  match Protocol.decode_server tag payload with
  | Ok m -> m
  | Error msg -> Alcotest.failf "server sent garbage: %s" msg

let temp_sock prefix =
  let p = Filename.temp_file prefix ".sock" in
  Sys.remove p;
  p

let check_byte_identical (reference : Ssf.report) (dist : Ssf.report) =
  Alcotest.(check string) "merged JSON byte-identical"
    (Export.report_json reference) (Export.report_json dist)

(* The campaign service holding the one campaign whose fingerprint is
   the [Protocol.fingerprint] these tests compute (benchmark "write"). *)
let serve_campaign ?obs ?(audit_rate = 0.) ?(breaker = Breaker.default_config)
    ?(io_deadline_s = 120.) ~ttl_s ~linger_s addr prep ~samples ~seed ~shard_size =
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
      io_deadline_s;
    }
  in
  Service.serve ?obs ~campaign:{ Service.spec; checkpoint = None; linger_s } config

let finished_shards outcome =
  match outcome with
  | Some { Service.sv_report = Some (shards, _, _); _ } -> shards
  | Some _ -> Alcotest.fail "the service stopped before the campaign finished"
  | None -> Alcotest.fail "no outcome"

(* Deterministic breaker/reconnect scenario: a malicious client sends
   corrupt frames under a real worker's name until the breaker trips;
   the real worker then gets parked with Retry_later, backs off, probes
   the half-open breaker and finishes the campaign anyway. *)
let test_breaker_parks_and_recovers () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 60 and shard_size = 30 and seed = 5 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let fingerprint =
    Protocol.fingerprint ~strategy:(Sampler.name prep) ~benchmark:"write" ~samples ~seed
      ~shard_size ~sample_budget:None ()
  in
  let sock = temp_sock "fmc-chaos-brk" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let addr = Wire.Unix_path sock in
      let creg = Metrics.create () in
      let cobs = Fmc_obs.Obs.create ~metrics:creg () in
      let outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome :=
              Some
                (serve_campaign ~obs:cobs
                   ~breaker:{ Breaker.failure_threshold = 2; cooldown_s = 0.4 }
                   ~ttl_s:5. ~linger_s:0.5 addr prep ~samples ~seed ~shard_size))
          ()
      in
      (* Two corrupt frames under the name "w1" trip its breaker. The
         service hangs up after each, so reconnect between them. *)
      let corrupt_once () =
        let fd = Wire.connect ~attempts:40 ~delay_s:0.05 addr in
        let conn = Wire.conn fd in
        send conn (Protocol.Hello { version = Protocol.version; worker = "w1"; fingerprint });
        (match recv conn with
        | Protocol.Welcome _ -> ()
        | _ -> Alcotest.fail "expected welcome");
        let raw = raw_frame_of ~tag:'R' "" in
        Bytes.set raw 5 (Char.chr (Char.code (Bytes.get raw 5) lxor 0x01)) (* break the CRC *);
        ignore (Unix.write fd raw 0 (Bytes.length raw));
        (match recv conn with
        | Protocol.Retry_later _ -> ()
        | _ -> Alcotest.fail "corrupt frame must be answered with Retry_later");
        Wire.close conn
      in
      corrupt_once ();
      corrupt_once ();
      (* The real w1 now runs into the open breaker, gets parked, backs
         off and completes the whole campaign once admitted. *)
      let wreg = Metrics.create () in
      let wobs = Fmc_obs.Obs.create ~metrics:wreg () in
      let wcfg =
        {
          (Worker.default_config ~addr ~worker_name:"w1") with
          Worker.heartbeat_every = 7;
          retry_delay_s = 0.05;
          retry = { Worker.base_s = 0.05; cap_s = 0.5; max_attempts = 20; budget_s = 30. };
        }
      in
      let accepted = Worker.run ~obs:wobs wcfg ~scope:fingerprint ~resolve:(local e prep) in
      Alcotest.(check int) "parked worker still ran every shard" (Array.length plan) accepted;
      Thread.join server;
      let dist =
        match Merge.report_of_blobs ~strategy:(Sampler.name prep) (finished_shards !outcome) with
        | Ok r -> r
        | Error msg -> Alcotest.failf "merge failed: %s" msg
      in
      let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
      check_byte_identical reference.Campaign.report dist;
      let counter reg name =
        match Metrics.find (Metrics.snapshot reg) name with
        | Some (Metrics.Counter v) -> v
        | _ -> 0.
      in
      Alcotest.(check bool) "corrupt frames counted" true
        (counter creg "fmc_dist_frames_corrupt_total" >= 2.);
      Alcotest.(check bool) "breaker tripped" true
        (counter creg "fmc_dist_breaker_opened_total" >= 1.);
      Alcotest.(check bool) "worker reconnected" true
        (counter wreg "fmc_dist_reconnects_total" >= 1.);
      match Metrics.find (Metrics.snapshot wreg) "fmc_dist_reconnect_backoff_seconds" with
      | Some (Metrics.Histo h) ->
          Alcotest.(check bool) "backoff sleeps observed" true (h.Metrics.count >= 1)
      | _ -> Alcotest.fail "missing backoff histogram")

(* The headline property, over several seeded fault plans: an aggressive
   chaos plan (bit flips, duplicated chunks, severed connections, small
   delays, periodic partitions) between the service and everything
   else — plus a worker dying mid-shard — never changes a byte of the
   merged report. *)
let chaos_round ~round =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 90 and shard_size = 30 and seed = 5 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let fingerprint =
    Protocol.fingerprint ~strategy:(Sampler.name prep) ~benchmark:"write" ~samples ~seed
      ~shard_size ~sample_budget:None ()
  in
  let hidden = temp_sock "fmc-chaos-up" in
  let public = temp_sock "fmc-chaos-pub" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ hidden; public ])
    (fun () ->
      let upstream = Wire.Unix_path hidden in
      let proxy_addr = Wire.Unix_path public in
      let creg = Metrics.create () in
      let cobs = Fmc_obs.Obs.create ~metrics:creg () in
      let outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome :=
              Some
                (serve_campaign ~obs:cobs
                   ~breaker:{ Breaker.failure_threshold = 4; cooldown_s = 0.3 }
                   (* A bit flip in a frame's length word leaves the
                      reader waiting for bytes that never come; short
                      deadlines turn that stall into a quick typed
                      Timeout. *)
                   ~io_deadline_s:2. ~ttl_s:1.0 ~linger_s:1.0 upstream prep ~samples ~seed
                   ~shard_size))
          ()
      in
      let cplan =
        match
          Fmc_chaos.Plan.parse
            "bitflip p=0.05; dup p=0.03; drop p=0.02; delay p=0.2 min=0.001 max=0.005; \
             partition every=1.2 for=0.2"
        with
        | Ok p -> p
        | Error msg -> Alcotest.failf "chaos plan: %s" msg
      in
      let events = ref 0 in
      let proxy =
        Fmc_chaos.Proxy.start
          ~on_event:(fun _ -> incr events)
          ~listen:proxy_addr ~upstream ~plan:cplan
          ~seed:(Int64.of_int (1000 + round))
          ()
      in
      Fun.protect
        ~finally:(fun () -> Fmc_chaos.Proxy.stop proxy)
        (fun () ->
          (* A worker killed mid-shard: lease through the proxy, go
             silent past the TTL, report under the fenced epoch. Chaos
             may sever it earlier — both deaths exercise the same
             re-issue path, so any transport error is acceptable. *)
          (try
             let fd = Wire.connect ~attempts:40 ~delay_s:0.05 proxy_addr in
             let conn = Wire.conn ~deadline_s:3. fd in
             send conn
               (Protocol.Hello { version = Protocol.version; worker = "dying"; fingerprint });
             (match recv conn with Protocol.Welcome _ -> () | _ -> ());
             send conn Protocol.Request_shard;
             (match recv conn with
             | Protocol.Job { shard; epoch; start; len; _ } ->
                 let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
                 Thread.delay 1.3;
                 send conn
                   (Protocol.Job_done
                      {
                        fingerprint;
                        shard;
                        epoch;
                        tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot;
                        quarantined = sh.Campaign.sh_quarantined;
                      });
                 ignore (recv conn)
             | _ -> ());
             Wire.close conn
           with
          | Wire.Closed | Wire.Timeout | Wire.Protocol_error _ | Unix.Unix_error _ -> ());
          (* Two live workers push the campaign home through the chaos. *)
          let worker name =
            let wcfg =
              {
                (Worker.default_config ~addr:proxy_addr ~worker_name:name) with
                Worker.heartbeat_every = 7;
                retry_delay_s = 0.05;
                connect_attempts = 40;
                io_deadline_s = 2.;
                retry = { Worker.base_s = 0.05; cap_s = 0.5; max_attempts = 100; budget_s = 120. };
              }
            in
            Thread.create (fun () -> ignore (Worker.run wcfg ~scope:fingerprint ~resolve:(local e prep))) ()
          in
          let w1 = worker "w1" and w2 = worker "w2" in
          Thread.join w1;
          Thread.join w2;
          Thread.join server;
          let shards = finished_shards !outcome in
          Alcotest.(check int) "all shard results" (Array.length plan) (List.length shards);
          let dist =
            match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
            | Ok r -> r
            | Error msg -> Alcotest.failf "merge failed: %s" msg
          in
          let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
          check_byte_identical reference.Campaign.report dist;
          let faults =
            List.fold_left (fun n (_, c) -> n + c) 0 (Fmc_chaos.Proxy.fault_counts proxy)
          in
          Alcotest.(check bool) "event log saw every fault" true (!events >= faults && faults >= 0);
          faults))

(* The adversarial fault: a proxy that rewrites result frames in
   flight, re-sealing the CRC-32 so the lie passes every transport
   check. A worker that attaches no digest gets its (mutated) results
   accepted — and only the audit layer can recover: honest
   re-execution disputes each lie, the lone remaining worker
   arbitrates, the verdict quarantines the liar and invalidates its
   unvindicated shards for honest re-execution. The merged report must
   still come out byte-identical to the fault-free reference. *)
let test_lying_proxy_caught_by_audit () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let samples = 90 and shard_size = 30 and seed = 5 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let fingerprint =
    Protocol.fingerprint ~strategy:(Sampler.name prep) ~benchmark:"write" ~samples ~seed
      ~shard_size ~sample_budget:None ()
  in
  let hidden = temp_sock "fmc-chaos-lie-up" in
  let public = temp_sock "fmc-chaos-lie-pub" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ hidden; public ])
    (fun () ->
      let upstream = Wire.Unix_path hidden in
      let proxy_addr = Wire.Unix_path public in
      let creg = Metrics.create () in
      let cobs = Fmc_obs.Obs.create ~metrics:creg () in
      let outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome :=
              Some
                (serve_campaign ~obs:cobs ~audit_rate:1.0 ~ttl_s:5.0 ~linger_s:1.0 upstream prep
                   ~samples ~seed ~shard_size))
          ()
      in
      let cplan =
        match Fmc_chaos.Plan.parse "lie p=1" with
        | Ok p -> p
        | Error msg -> Alcotest.failf "chaos plan: %s" msg
      in
      let proxy = Fmc_chaos.Proxy.start ~listen:proxy_addr ~upstream ~plan:cplan ~seed:77L () in
      Fun.protect
        ~finally:(fun () -> Fmc_chaos.Proxy.stop proxy)
        (fun () ->
          (* The liar: runs every shard honestly but attaches no digest,
             and every Job_done crosses the lying proxy. The mutated
             results arrive wire-valid and are accepted. *)
          (* The service binds in its own thread and the proxy dials
             upstream once per client, so a liar that arrives first is
             cut off before its Welcome; it dials again, as a worker
             would. *)
          let rec handshake attempts =
            let fd = Wire.connect ~attempts:40 ~delay_s:0.05 proxy_addr in
            let conn = Wire.conn fd in
            match
              send conn
                (Protocol.Hello { version = Protocol.version; worker = "mallory"; fingerprint });
              recv conn
            with
            | Protocol.Welcome _ -> conn
            | _ -> Alcotest.fail "expected welcome"
            | exception Wire.Closed when attempts > 1 ->
                Wire.close conn;
                Thread.delay 0.05;
                handshake (attempts - 1)
          in
          let conn = handshake 40 in
          let rec grab n =
            if n > 0 then begin
              send conn Protocol.Request_shard;
              match recv conn with
              | Protocol.Job { shard; epoch; start; len; _ } ->
                  let sh = Campaign.run_shard e prep ~seed ~shard ~start ~len in
                  send conn
                    (Protocol.Job_done
                       {
                         fingerprint;
                         shard;
                         epoch;
                         tally = Ssf.Tally.to_string sh.Campaign.sh_snapshot;
                         quarantined = sh.Campaign.sh_quarantined;
                       });
                  (match recv conn with
                  | Protocol.Ack { accepted = true; _ } -> ()
                  | _ -> Alcotest.fail "an undigested lie must be accepted");
                  grab (n - 1)
              | _ -> Alcotest.fail "expected a job"
            end
          in
          grab (Array.length plan);
          Wire.close conn;
          (* The honest worker connects directly: no primary work left,
             only audits — then the arbitrations, then the honest
             re-runs of the invalidated shards. *)
          let wcfg =
            {
              (Worker.default_config ~addr:upstream ~worker_name:"alice") with
              Worker.heartbeat_every = 7;
              retry_delay_s = 0.1;
            }
          in
          let accepted = Worker.run wcfg ~scope:fingerprint ~resolve:(local e prep) in
          Alcotest.(check bool) "honest worker executed audits and re-runs" true (accepted >= 1);
          Thread.join server;
          let shards = finished_shards !outcome in
          Alcotest.(check int) "all shard results" (Array.length plan) (List.length shards);
          let dist =
            match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
            | Ok r -> r
            | Error msg -> Alcotest.failf "merge failed: %s" msg
          in
          let reference = Campaign.estimate_sharded e prep ~samples ~seed ~shard_size in
          check_byte_identical reference.Campaign.report dist;
          Alcotest.(check bool) "proxy rewrote every result frame" true
            (match List.assoc_opt "lie" (Fmc_chaos.Proxy.fault_counts proxy) with
            | Some n -> n >= Array.length plan
            | None -> false);
          let counter name =
            match Metrics.find (Metrics.snapshot creg) name with
            | Some (Metrics.Counter v) -> v
            | _ -> 0.
          in
          Alcotest.(check bool) "every lie disputed" true
            (counter "fmc_audit_disputes_total" >= 1.);
          Alcotest.(check bool) "unvindicated shards invalidated" true
            (counter "fmc_audit_invalidated_total" >= 1.);
          match Metrics.find (Metrics.snapshot creg) "fmc_audit_quarantined_workers" with
          | Some (Metrics.Gauge v) ->
              Alcotest.(check (float 0.)) "liar quarantined" 1. v
          | _ -> Alcotest.fail "missing gauge fmc_audit_quarantined_workers"))

let test_chaos_campaign_bit_exact () =
  (* Three seeded fault plans; the fault mix is probabilistic per round,
     so the "chaos actually happened" assertion aggregates. *)
  let total = ref 0 in
  for round = 1 to 3 do
    total := !total + chaos_round ~round
  done;
  Alcotest.(check bool) "chaos injected at least one fault" true (!total >= 1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chaos"
    [
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "extend composes" `Quick test_crc32_extend_composition;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_frame_corruption_rejected;
          Alcotest.test_case "oversized rejected" `Quick test_oversized_frame_rejected;
        ] );
      ( "backoff",
        [ Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds ] );
      ( "breaker",
        [ Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle ] );
      ( "plan",
        [
          Alcotest.test_case "parse round-trip" `Quick test_plan_parse_roundtrip;
          Alcotest.test_case "rejects bad plans" `Quick test_plan_parse_rejects;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "breaker parks and recovers" `Slow test_breaker_parks_and_recovers;
          Alcotest.test_case "bit-exact under chaos" `Slow test_chaos_campaign_bit_exact;
          Alcotest.test_case "lying proxy caught by audit" `Slow test_lying_proxy_caught_by_audit;
        ] );
    ]
