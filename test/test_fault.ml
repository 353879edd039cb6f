(* Tests for the pluggable fault-model subsystem (Fmc_fault): the
   registry's parameter codec and typed errors, byte-identity of the
   default model against the committed pre-subsystem reference reports,
   per-model determinism (locally, sharded and through Fmc_dist with a
   dead worker), the prune/inject soundness guard at every entry
   point, the campaign
   checkpoint's model line (v5), the fault-model component of
   distributed fingerprints and spec lines, and the sample loop's
   invariance under the number of domains. *)

module Programs = Fmc_isa.Programs
module Model = Fmc_fault.Model
module Registry = Fmc_fault.Registry
open Fmc
open Fmc_dist

let ctx = lazy (Experiments.context ())
let engine () = Experiments.engine_for (Lazy.force ctx) Programs.illegal_write
let engine_read () = Experiments.engine_for (Lazy.force ctx) Programs.illegal_read

let prepare strategy =
  let e = engine () in
  Sampler.prepare ~static_vuln:(Engine.static_vulnerable e) strategy
    (Experiments.default_attack (Lazy.force ctx))
    (Experiments.precharac (Lazy.force ctx))
    ~placement:(Engine.placement e)

let no_signals = { Campaign.default_config with Campaign.handle_signals = false }

let model spec =
  match Registry.parse spec with
  | Ok m -> m
  | Error e -> Alcotest.failf "model %S did not parse: %s" spec (Registry.error_message e)

(* Strict structural equality through the export codec: every field the
   report carries, in canonical bytes. *)
let check_reports_equal what (a : Ssf.report) (b : Ssf.report) =
  Alcotest.(check string) what (Export.report_json a) (Export.report_json b)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let with_tmp name f =
  let path = Filename.temp_file "fmc-fault" name in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let contains hay sub =
  let n = String.length sub and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Registry: codec, canonicalization, typed errors *)

let test_registry_canonical () =
  Alcotest.(check (list string))
    "four registered models"
    [ "disc-transient"; "seu-burst"; "instr-skip"; "double-strike" ]
    Registry.names;
  (* Explicitly-spelled defaults canonicalize away... *)
  Alcotest.(check string) "default bits collapse" "seu-burst" (Model.canonical (model "seu-burst:bits=2"));
  Alcotest.(check string) "default gap collapses" "double-strike" (Model.canonical (model "double-strike:gap=2"));
  Alcotest.(check string) "skip mode collapses" "instr-skip" (Model.canonical (model "instr-skip:mode=skip"));
  (* ...non-defaults survive, sorted by key, and round-trip. *)
  let m = model "instr-skip:mode=corrupt,mask=255" in
  Alcotest.(check string) "params sorted" "instr-skip:mask=255,mode=corrupt" (Model.canonical m);
  Alcotest.(check string) "canonical round-trips" (Model.canonical m)
    (Model.canonical (model (Model.canonical m)));
  Alcotest.(check string) "metric name sanitized" "seu_burst_bits_4"
    (Model.metric_name (model "seu-burst:bits=4"));
  (* The default model carries the engine's native injector, the only
     prunable one; every model's injector is named by its canonical
     string. *)
  let disc = model "disc-transient" in
  Alcotest.(check bool) "disc carries Ssf.disc_transient" true
    (Model.injector disc == Ssf.disc_transient);
  Alcotest.(check bool) "disc is prunable" true (Model.injector disc).Ssf.inj_prunable;
  List.iter
    (fun name ->
      let m = model name in
      Alcotest.(check bool) (name ^ " carries an injector") true (Option.is_some m.Model.inject);
      Alcotest.(check string) (name ^ " injector named canonically") (Model.canonical m)
        (Model.injector m).Ssf.inj_model;
      Alcotest.(check bool) (name ^ " reads no rng") false (Model.injector m).Ssf.inj_reads_rng)
    Registry.names;
  (* Of the native model's ablations, only hardening draws from the
     stream (a hardened flip survives a draw). *)
  let reads inj = inj.Ssf.inj_reads_rng in
  Alcotest.(check bool) "hardened ablation reads rng" true
    (reads (Ssf.disc_ablation ~hardened:(fun _ -> true) ()));
  Alcotest.(check bool) "filtered ablation reads no rng" false
    (reads (Ssf.disc_ablation ~cell_filter:(fun _ -> true) ~impact_cycles:2 ()));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not prunable") false
        (Model.injector (model name)).Ssf.inj_prunable)
    [ "seu-burst"; "instr-skip"; "double-strike" ]

let test_registry_errors () =
  let unknown = function Error (Registry.Unknown_model _) -> true | _ -> false in
  let bad = function Error (Registry.Bad_params _) -> true | _ -> false in
  Alcotest.(check bool) "unknown model" true (unknown (Registry.parse "zap-gun"));
  Alcotest.(check bool) "unknown name with params" true (unknown (Registry.parse "zap:p=1"));
  Alcotest.(check bool) "unknown key" true (bad (Registry.parse "seu-burst:gap=1"));
  Alcotest.(check bool) "duplicate key" true (bad (Registry.parse "seu-burst:bits=2,bits=3"));
  Alcotest.(check bool) "bad integer" true (bad (Registry.parse "seu-burst:bits=lots"));
  Alcotest.(check bool) "out of range" true (bad (Registry.parse "seu-burst:bits=65"));
  Alcotest.(check bool) "missing =" true (bad (Registry.parse "seu-burst:bits"));
  Alcotest.(check bool) "bad mode" true (bad (Registry.parse "instr-skip:mode=random"));
  Alcotest.(check bool) "mask needs corrupt" true (bad (Registry.parse "instr-skip:mask=255"));
  Alcotest.(check bool) "disc takes no params" true (bad (Registry.parse "disc-transient:x=1"));
  Alcotest.(check bool) "valid helper" true (Registry.valid "double-strike:gap=9");
  Alcotest.(check bool) "invalid helper" false (Registry.valid "double-strike:gap=0");
  (match Registry.parse "zap-gun" with
  | Error e ->
      Alcotest.(check bool) "message names the model" true
        (contains (Registry.error_message e) "zap-gun")
  | Ok _ -> Alcotest.fail "zap-gun must not parse")

(* ------------------------------------------------------------------ *)
(* Byte-identity of the default model against the pre-subsystem
   reference reports committed under test/ref (generated at the commit
   before the fault-model refactor landed; plain-write-importance.json at
   the commit before [Sampler.prepare] began scoring each (t, cell) once). *)

(* `dune runtest` runs the executable from test/'s build dir; `dune exec`
   runs it from wherever it was invoked — accept both. *)
let fixture name =
  let local = Filename.concat "ref" name in
  let path = if Sys.file_exists local then local else Filename.concat "test" local in
  read_file path

let test_byte_identity_plain () =
  let prep = prepare Sampler.default_mixed in
  let w = Ssf.estimate (engine ()) prep ~samples:400 ~seed:11 in
  Alcotest.(check string) "write plain" (fixture "plain-write.json") (Export.report_json w ^ "\n");
  let r = Ssf.estimate (engine_read ()) prep ~samples:400 ~seed:11 in
  Alcotest.(check string) "read plain" (fixture "plain-read.json") (Export.report_json r ^ "\n");
  (* [mixed] smooths importance scores with the neighborhood mean; the
     [importance] strategy pins the max. *)
  let i = Ssf.estimate (engine ()) (prepare Sampler.default_importance) ~samples:400 ~seed:11 in
  Alcotest.(check string) "write plain, importance" (fixture "plain-write-importance.json")
    (Export.report_json i ^ "\n")

let test_byte_identity_sharded () =
  let prep = prepare Sampler.default_mixed in
  let w = Campaign.estimate_sharded (engine ()) prep ~samples:400 ~seed:11 ~shard_size:100 in
  Alcotest.(check string) "write sharded" (fixture "sharded-write.json")
    (Export.report_json w.Campaign.report ^ "\n");
  let r =
    Campaign.estimate_sharded (engine_read ()) prep ~samples:400 ~seed:11 ~shard_size:100
  in
  Alcotest.(check string) "read sharded" (fixture "sharded-read.json")
    (Export.report_json r.Campaign.report ^ "\n")

(* ------------------------------------------------------------------ *)
(* Per-model determinism: all builtin injectors draw zero RNG, so the
   same seed must reproduce the same report — plain and sharded. *)

let test_per_model_determinism () =
  let prep = prepare Sampler.default_mixed in
  let e = engine () in
  List.iter
    (fun spec ->
      let inject = Model.injector (model spec) in
      let a = Ssf.estimate ~inject e prep ~samples:150 ~seed:23 in
      let b = Ssf.estimate ~inject e prep ~samples:150 ~seed:23 in
      check_reports_equal (spec ^ " plain deterministic") a b;
      let sa = Campaign.estimate_sharded ~inject e prep ~samples:150 ~seed:23 ~shard_size:50 in
      let sb = Campaign.estimate_sharded ~inject e prep ~samples:150 ~seed:23 ~shard_size:50 in
      check_reports_equal (spec ^ " sharded deterministic") sa.Campaign.report
        sb.Campaign.report)
    [ "seu-burst"; "seu-burst:bits=8"; "instr-skip"; "instr-skip:mode=corrupt"; "double-strike" ]

(* ------------------------------------------------------------------ *)
(* Soundness guard: masking certificates only cover the unmodified
   disc transient, so every entry point that takes ?prune refuses a
   non-prunable injector — a synthetic model or an ablated disc variant
   alike — with a typed error, through the one guard in the shared
   sample loop. *)

let test_prune_inject_refused () =
  let prep = prepare Sampler.default_mixed in
  let e = engine () in
  let prune = { Ssf.covered = (fun _ -> false); note = (fun _ ~covered:_ -> ()) } in
  let refused what f =
    Alcotest.(check bool) what true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  let hardened = Ssf.disc_ablation ~hardened:(fun _ -> true) () in
  Alcotest.(check bool) "hardened variant named apart" true
    (hardened.Ssf.inj_model <> Ssf.disc_transient.Ssf.inj_model);
  List.iter
    (fun (inject : Ssf.inject) ->
      let who entry = entry ^ " refuses " ^ inject.Ssf.inj_model in
      refused (who "estimate") (fun () -> Ssf.estimate ~prune ~inject e prep ~samples:10 ~seed:1);
      refused (who "estimate_until") (fun () ->
          Ssf.estimate_until ~prune ~inject e prep ~half_width:0.5 ~z:1.96 ~seed:1);
      refused (who "run") (fun () ->
          Campaign.run ~config:no_signals ~prune ~inject e prep ~samples:10 ~seed:1);
      refused (who "run_shard") (fun () ->
          Campaign.run_shard ~prune ~inject e prep ~seed:1 ~shard:0 ~start:0 ~len:5);
      refused (who "estimate_sharded") (fun () ->
          Campaign.estimate_sharded ~prune ~inject e prep ~samples:10 ~seed:1 ~shard_size:5);
      with_tmp "ckpt" (fun path ->
          let config = { no_signals with Campaign.checkpoint_path = Some path } in
          let half =
            Campaign.run ~config ~inject ~stop:(fun i -> i >= 5) e prep ~samples:10 ~seed:1
          in
          Alcotest.(check bool) "checkpoint to resume from" true
            (half.Campaign.status = Campaign.Interrupted);
          refused (who "resume") (fun () ->
              Campaign.resume ~config:no_signals ~prune ~inject e prep ~path)))
    [ Model.injector (model "seu-burst"); hardened ]

(* ------------------------------------------------------------------ *)
(* Campaign checkpoints: v5 records the model; resuming under another
   model is refused. *)

let test_checkpoint_records_model () =
  with_tmp "ckpt" @@ fun path ->
  let prep = prepare Sampler.default_mixed in
  let e = engine () in
  let inject = Model.injector (model "seu-burst:bits=3") in
  let uninterrupted = Campaign.run ~config:no_signals ~inject e prep ~samples:120 ~seed:9 in
  let config =
    { no_signals with Campaign.checkpoint_path = Some path; Campaign.checkpoint_every = 20 }
  in
  let half =
    Campaign.run ~config ~inject ~stop:(fun i -> i >= 60) e prep ~samples:120 ~seed:9
  in
  Alcotest.(check bool) "interrupted" true (half.Campaign.status = Campaign.Interrupted);
  let raw = read_file path in
  Alcotest.(check bool) "v5 header" true
    (String.length raw > 18 && String.sub raw 0 18 = "faultmc-campaign 5");
  Alcotest.(check bool) "model line present" true
    (contains raw "\nmodel seu-burst:bits=3\n");
  (* Wrong model at resume: refused before any sample is evaluated. *)
  Alcotest.(check bool) "model mismatch refused" true
    (try
       ignore (Campaign.resume ~config:no_signals e prep ~path);
       false
     with Campaign.Checkpoint_corrupt { path = p; _ } -> p = path);
  let resumed = Campaign.resume ~config:no_signals ~inject e prep ~path in
  Alcotest.(check bool) "resumed to completion" true
    (resumed.Campaign.status = Campaign.Completed);
  check_reports_equal "resume bit-exact under seu-burst" uninterrupted.Campaign.report
    resumed.Campaign.report

(* ------------------------------------------------------------------ *)
(* Distributed identity: the fingerprint only grows a model component
   when it deviates from the default, and spec lines carry the model as
   their 7th word. *)

let test_fingerprint_model_component () =
  let fp ?fault_model () =
    Protocol.fingerprint ?fault_model ~strategy:"mixed" ~benchmark:"write" ~samples:100 ~seed:1
      ~shard_size:25 ~sample_budget:None ()
  in
  Alcotest.(check string) "default model leaves the fingerprint unchanged" (fp ())
    (fp ~fault_model:"disc-transient" ());
  let seu = fp ~fault_model:"seu-burst:bits=4" () in
  Alcotest.(check bool) "non-default model changes the fingerprint" true (seu <> fp ());
  Alcotest.(check bool) "component is appended" true
    (let suffix = " model=seu-burst:bits=4" in
     let n = String.length suffix in
     String.length seu > n && String.sub seu (String.length seu - n) n = suffix)

let test_spec_line_codec () =
  let spec =
    {
      Protocol.sp_benchmark = "illegal-write";
      sp_strategy = "mixed";
      sp_samples = 100;
      sp_seed = 7;
      sp_shard_size = 25;
      sp_sample_budget = Some 4000;
      sp_fault_model = "double-strike:gap=5";
    }
  in
  (match Protocol.spec_of_line (Protocol.spec_line spec) with
  | Ok rt -> Alcotest.(check bool) "7-word round trip" true (rt = spec)
  | Error msg -> Alcotest.failf "round trip failed: %s" msg);
  (* Every spec line this tree writes has the model word; a 6-word line
     is malformed. *)
  (match
     Protocol.spec_of_line "benchmark=illegal-write strategy=mixed samples=100 seed=7 shard_size=25 budget=-"
   with
  | Ok _ -> Alcotest.fail "a 6-word line must be refused"
  | Error _ -> ());
  match Protocol.spec_of_line "benchmark=x strategy=y samples=1 seed=1 shard_size=1 budget=- nonsense=1" with
  | Ok _ -> Alcotest.fail "a 7th word must be a model field"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Loopback distributed campaign under a non-default model: a worker
   announcing the default model is rejected at the handshake; a worker
   dies mid-run (lease expiry + epoch fencing); the healthy worker's
   merged report is bit-identical to the local sharded reference under
   the same injector. *)

let send conn msg =
  let tag, payload = Protocol.encode_client msg in
  Wire.write_frame conn ~tag payload

let recv conn =
  let tag, payload = Wire.read_frame conn in
  match Protocol.decode_server tag payload with
  | Ok m -> m
  | Error msg -> Alcotest.failf "server sent garbage: %s" msg

let test_loopback_model_campaign () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let m = model "seu-burst:bits=4" in
  let inject = Model.injector m in
  let samples = 90 and shard_size = 30 and seed = 13 in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let fp ?fault_model () =
    Protocol.fingerprint ?fault_model ~strategy:(Sampler.name prep) ~benchmark:"write" ~samples
      ~seed ~shard_size ~sample_budget:None ()
  in
  let fingerprint = fp ~fault_model:(Model.canonical m) () in
  let sock_path = Filename.temp_file "fmc-fault-dist" ".sock" in
  Sys.remove sock_path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock_path then Sys.remove sock_path)
    (fun () ->
      let addr = Wire.Unix_path sock_path in
      let spec =
        {
          Protocol.sp_benchmark = "write";
          sp_strategy = Sampler.name prep;
          sp_samples = samples;
          sp_seed = seed;
          sp_shard_size = shard_size;
          sp_sample_budget = None;
          sp_fault_model = Model.canonical m;
        }
      in
      let config =
        {
          (Fmc_sched.Service.default_config addr) with
          Fmc_sched.Service.sched = { Fmc_sched.Sched.default_config with ttl_s = 1.0 };
        }
      in
      let outcome = ref None in
      let server =
        Thread.create
          (fun () ->
            outcome :=
              Some
                (Fmc_sched.Service.serve
                   ~campaign:{ Fmc_sched.Service.spec; checkpoint = None; linger_s = 0.5 }
                   config))
          ()
      in
      (* A worker configured for the default model: its fingerprint
         lacks the model component, so the handshake refuses it. *)
      let fd = Wire.connect ~attempts:40 ~delay_s:0.1 addr in
      let conn = Wire.conn fd in
      send conn
        (Protocol.Hello { version = Protocol.version; worker = "wrong-model"; fingerprint = fp () });
      (match recv conn with
      | Protocol.Reject _ -> ()
      | _ -> Alcotest.fail "model mismatch must be rejected at hello");
      Wire.close conn;
      (* A worker under the right model takes a lease and dies. *)
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
      let sh = Campaign.run_shard ~inject e prep ~seed ~shard ~start ~len in
      let blob = Ssf.Tally.to_string sh.Campaign.sh_snapshot in
      Thread.delay 1.6 (* past the TTL: the service expires the lease *);
      send conn (Protocol.Job_done { fingerprint; shard; epoch; tally = blob; quarantined = [] });
      (match recv conn with
      | Protocol.Ack { accepted = false; _ } -> ()
      | _ -> Alcotest.fail "zombie result must be fenced");
      Wire.close conn;
      (* The healthy worker runs the campaign under the injector. *)
      let wcfg =
        {
          (Worker.default_config ~addr ~worker_name:"healthy") with
          Worker.heartbeat_every = 7;
          retry_delay_s = 0.1;
        }
      in
      let accepted = Worker.run wcfg ~scope:fingerprint ~resolve:(fun _ -> Ok (e, prep, inject)) in
      Alcotest.(check int) "healthy worker ran every shard" (Array.length plan) accepted;
      Thread.join server;
      let shards =
        match !outcome with
        | Some { Fmc_sched.Service.sv_report = Some (shards, _, _); _ } -> shards
        | _ -> Alcotest.fail "the service stopped before the campaign finished"
      in
      let dist =
        match Merge.report_of_blobs ~strategy:(Sampler.name prep) shards with
        | Ok r -> r
        | Error msg -> Alcotest.failf "merge failed: %s" msg
      in
      let reference = Campaign.estimate_sharded ~inject e prep ~samples ~seed ~shard_size in
      check_reports_equal "distributed seu-burst bit-identical to local reference"
        reference.Campaign.report dist)

(* ------------------------------------------------------------------ *)
(* Domain-count invariance of the sample loop: every case runs at one and
   at three domains and must give the same report bytes, quarantine
   lists and engine counters. Each run builds its own engine, so the
   golden-cycle cache starts empty both times. *)

let fresh_engine program =
  Engine.create ~precharac:(Experiments.precharac (Lazy.force ctx)) program

let observed () =
  let reg = Fmc_obs.Metrics.create () in
  (reg, Fmc_obs.Obs.create ~metrics:reg ())

(* Every metric, with only the count of the latency histogram: its
   buckets and sum time the samples. *)
let counters reg =
  String.concat ""
    (List.map
       (fun (name, (_, v)) ->
         match v with
         | Fmc_obs.Metrics.Counter x | Fmc_obs.Metrics.Gauge x -> Printf.sprintf "%s %h\n" name x
         | Fmc_obs.Metrics.Histo h when name = "fmc_sample_duration_us" ->
             Printf.sprintf "%s count %d\n" name h.Fmc_obs.Metrics.count
         | Fmc_obs.Metrics.Histo h ->
             Printf.sprintf "%s counts %s sum %h count %d\n" name
               (String.concat " " (List.map string_of_int (Array.to_list h.Fmc_obs.Metrics.counts)))
               h.Fmc_obs.Metrics.sum h.Fmc_obs.Metrics.count)
       (Fmc_obs.Metrics.snapshot reg))

let quarantine_lines entries =
  String.concat "" (List.map (fun q -> Campaign.journal_line q ^ "\n") entries)

let json r = Export.report_json r ^ "\n"

let model_case name () =
  let e = fresh_engine Programs.illegal_write in
  let reg, obs = observed () in
  let r =
    Ssf.estimate ~obs ~inject:(Model.injector (model name)) e (prepare Sampler.default_mixed)
      ~samples:400 ~seed:21
  in
  json r ^ counters reg

let prune_case () =
  let e = fresh_engine Programs.illegal_read in
  let reg, obs = observed () in
  let pruner = Fmc_sva.Pruner.create ~obs e in
  let r =
    Ssf.estimate ~obs ~prune:(Fmc_sva.Pruner.prune pruner) e (prepare Sampler.Random)
      ~samples:800 ~seed:21
  in
  json r ^ counters reg

(* A stop in mid-block: the pruner is asked about the samples drawn
   past it but counts only the recorded ones. *)
let prune_until_case () =
  let e = fresh_engine Programs.illegal_read in
  let reg, obs = observed () in
  let pruner = Fmc_sva.Pruner.create ~obs e in
  let r =
    Ssf.estimate_until ~obs ~prune:(Fmc_sva.Pruner.prune pruner) ~batch:100 ~max_samples:4000 e
      (prepare Sampler.Random) ~half_width:0.012 ~z:1.96 ~seed:3
  in
  Alcotest.(check bool) "stopped before the cap" true (r.Ssf.n < 4000);
  let st = Fmc_sva.Pruner.stats pruner in
  Alcotest.(check int) "recorded samples checked" r.Ssf.n st.Fmc_sva.Pruner.checked;
  Printf.sprintf "%d %d %d\n" st.checked st.pruned st.certificates ^ json r ^ counters reg

let quarantine_case () =
  let e = fresh_engine Programs.illegal_write in
  let prep = prepare Sampler.default_mixed in
  let reg, obs = observed () in
  let fault_hook i _ = if i mod 50 = 0 then failwith "injected evaluation crash" in
  let crashed = Campaign.run ~config:no_signals ~obs ~fault_hook e prep ~samples:300 ~seed:11 in
  let budget = { no_signals with Campaign.sample_budget = Some 0 } in
  let timed_out = Campaign.run ~config:budget ~obs e prep ~samples:300 ~seed:12 in
  Alcotest.(check int) "every 50th sample crashed" 6
    crashed.Campaign.report.Ssf.outcomes.Ssf.q_crashed;
  Alcotest.(check bool) "a zero budget times resumes out" true
    (timed_out.Campaign.report.Ssf.outcomes.Ssf.q_timed_out > 0);
  json crashed.Campaign.report
  ^ quarantine_lines crashed.Campaign.quarantined
  ^ json timed_out.Campaign.report
  ^ quarantine_lines timed_out.Campaign.quarantined
  ^ counters reg

let until_case () =
  let e = fresh_engine Programs.illegal_write in
  let reg, obs = observed () in
  let r =
    Ssf.estimate_until ~obs ~batch:100 ~max_samples:4000 e (prepare Sampler.default_mixed)
      ~half_width:0.006 ~z:1.96 ~seed:3
  in
  Alcotest.(check bool) "stopped before the cap" true (r.Ssf.n < 4000);
  json r ^ counters reg

let resume_case () =
  with_tmp "ckpt" @@ fun path ->
  let e = fresh_engine Programs.illegal_write in
  let prep = prepare Sampler.default_mixed in
  let reg, obs = observed () in
  let config =
    { no_signals with Campaign.checkpoint_path = Some path; checkpoint_every = 70 }
  in
  let first = Campaign.run ~config ~obs ~stop:(fun n -> n >= 205) e prep ~samples:500 ~seed:17 in
  Alcotest.(check int) "stopped at 205" 205 first.Campaign.report.Ssf.n;
  let checkpoint = read_file path in
  let rest = Campaign.resume ~config ~obs e prep ~path in
  Alcotest.(check int) "resumed to the end" 500 rest.Campaign.report.Ssf.n;
  json first.Campaign.report ^ checkpoint ^ json rest.Campaign.report ^ counters reg

let shard_case () =
  let e = fresh_engine Programs.illegal_write in
  let reg, obs = observed () in
  let seen = ref [] in
  let fault_hook i _ = if i mod 37 = 0 then failwith "injected evaluation crash" in
  let sh =
    Campaign.run_shard ~obs ~fault_hook ~on_sample:(fun n -> seen := n :: !seen) e
      (prepare Sampler.default_mixed) ~seed:9 ~shard:2 ~start:600 ~len:300
  in
  Alcotest.(check (list int)) "on_sample counts up" (List.init 300 (fun k -> 300 - k)) !seen;
  Ssf.Tally.to_string sh.Campaign.sh_snapshot
  ^ quarantine_lines sh.Campaign.sh_quarantined
  ^ counters reg

(* The hardened run reads the stream, so it keeps blocks of one; its
   bytes are the ones committed before the loop went multicore. *)
let harden_case () =
  let e = fresh_engine Programs.illegal_write in
  let reg, obs = observed () in
  Engine.set_obs e obs;
  let prep = prepare Sampler.default_mixed in
  let net = (Engine.circuit e).Fmc_cpu.Circuit.net in
  let pilot = Ssf.estimate e prep ~samples:400 ~seed:5 in
  let plan = Harden.default_plan net pilot ~coverage:0.9 in
  let ev = Harden.evaluate e prep ~plan ~samples:600 ~seed:6 in
  let bytes = json ev.Harden.baseline ^ json ev.Harden.hardened in
  Alcotest.(check string) "matches the committed reference" (fixture "harden-write.json") bytes;
  bytes ^ counters reg

let domain_invariance case () =
  let one = Ssf.with_domains 1 case in
  let three = Ssf.with_domains 3 case in
  Alcotest.(check string) "3 domains give the 1-domain bytes" one three

let domain_cases =
  List.map (fun name -> ("model " ^ name, model_case name)) Registry.names
  @ [
      ("prune on read", prune_case);
      ("prune with an estimate_until stop", prune_until_case);
      ("crash hook and zero budget", quarantine_case);
      ("estimate_until stop", until_case);
      ("campaign stopped at 205 and resumed", resume_case);
      ("shard on_sample and indices", shard_case);
      ("harden reads rng, matches reference", harden_case);
    ]

(* ------------------------------------------------------------------ *)
(* Counts unchanged: every metric of a 500-sample estimate under each
   registered model, at one and at three domains, against
   test/ref/model-metrics.txt. That file was written by the sample loop
   that observed each sample into a registry of its own, before engine
   counts were deferred with the cache fills, so it pins the counts
   against that loop and not only one domain against three. *)

let model_metrics () =
  let prep = prepare Sampler.default_mixed in
  String.concat ""
    (List.map
       (fun name ->
         let e = fresh_engine Programs.illegal_write in
         let reg, obs = observed () in
         ignore
           (Ssf.estimate ~obs ~inject:(Model.injector (model name)) e prep ~samples:500 ~seed:5);
         "model " ^ name ^ "\n" ^ counters reg)
       Registry.names)

let test_model_metrics domains () =
  Alcotest.(check string) "the reference series" (fixture "model-metrics.txt")
    (Ssf.with_domains domains model_metrics)

(* ------------------------------------------------------------------ *)
(* Allocation guards. Every model restores into the engine's own
   systems, so none allocates a data memory (1,024 words, straight to
   the major heap) per sample; and an observed pooled run defers its
   engine counts, so it builds no registry per sample. The GC counters
   are read after a minor collection, which every domain takes part in,
   so the helper domains' allocation is included. *)

let alloc_samples = 1000

(* Words per sample that [run] allocates directly in the major heap, and
   in the minor heaps. *)
let words_per_sample run =
  let direct (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  run ();
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let per x = x /. float_of_int alloc_samples in
  (per (direct s1 -. direct s0), per (s1.Gc.minor_words -. s0.Gc.minor_words))

(* A run of each model on an engine whose golden-cycle cache is already
   filled (cache fills allocate, once per cycle). *)
let model_runs f =
  let prep = prepare Sampler.default_mixed in
  List.iter
    (fun name ->
      let inject = Model.injector (model name) in
      let e = fresh_engine Programs.illegal_write in
      let run ?obs () = ignore (Ssf.estimate ?obs ~inject e prep ~samples:alloc_samples ~seed:6) in
      run ();
      f name run)
    Registry.names

let test_major_words () =
  Ssf.with_domains 1 @@ fun () ->
  model_runs (fun name run ->
      let major, _ = words_per_sample run in
      if major > 16. then
        Alcotest.failf "%s allocates %.1f major-heap words per sample (bound 16)" name major)

let test_observed_minor_words () =
  Ssf.with_domains 3 @@ fun () ->
  model_runs (fun name run ->
      let _, off = words_per_sample run in
      let _, on = words_per_sample (fun () -> run ~obs:(snd (observed ())) ()) in
      if on -. off > 64. then
        Alcotest.failf "%s: observing costs %.1f minor words per sample (bound 64)" name (on -. off))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fmc_fault"
    [
      ( "registry",
        [
          Alcotest.test_case "canonicalization and round trips" `Quick test_registry_canonical;
          Alcotest.test_case "typed errors" `Quick test_registry_errors;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "plain reports match pre-subsystem reference" `Slow
            test_byte_identity_plain;
          Alcotest.test_case "sharded reports match pre-subsystem reference" `Slow
            test_byte_identity_sharded;
        ] );
      ( "models",
        [
          Alcotest.test_case "per-model determinism" `Slow test_per_model_determinism;
          Alcotest.test_case "prune+inject refused" `Quick test_prune_inject_refused;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "v5 records the model; mismatch refused" `Slow
            test_checkpoint_records_model;
        ] );
      ( "domains",
        List.map
          (fun (name, case) -> Alcotest.test_case name `Slow (domain_invariance case))
          domain_cases );
      ( "counts",
        [
          Alcotest.test_case "reference metrics, 1 domain" `Slow
            (test_model_metrics 1);
          Alcotest.test_case "reference metrics, 3 domains" `Slow
            (test_model_metrics 3);
          Alcotest.test_case "no major words per sample" `Slow test_major_words;
          Alcotest.test_case "no registry per sample" `Slow
            test_observed_minor_words;
        ] );
      ( "dist",
        [
          Alcotest.test_case "fingerprint model component" `Quick test_fingerprint_model_component;
          Alcotest.test_case "spec line codec (6 and 7 words)" `Quick test_spec_line_codec;
          Alcotest.test_case "loopback model campaign with dead worker" `Slow
            test_loopback_model_campaign;
        ] );
    ]
