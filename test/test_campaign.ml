(* Tests for the fault-tolerant campaign runner: checkpoint/resume
   bit-exactness, per-sample quarantine accounting, pooled-ESS report
   merging and the dmem power-of-two guard. *)

module Programs = Fmc_isa.Programs
module System = Fmc_cpu.System
open Fmc

let ctx = lazy (Experiments.context ())
let engine () = Experiments.engine_for (Lazy.force ctx) Programs.illegal_write

let prepare strategy =
  let e = engine () in
  Sampler.prepare ~static_vuln:(Engine.static_vulnerable e) strategy
    (Experiments.default_attack (Lazy.force ctx))
    (Experiments.precharac (Lazy.force ctx))
    ~placement:(Engine.placement e)

let no_signals = { Campaign.default_config with Campaign.handle_signals = false }

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
  Alcotest.(check int) "q_crashed" a.Ssf.outcomes.Ssf.q_crashed b.Ssf.outcomes.Ssf.q_crashed;
  Alcotest.(check int) "q_timed_out" a.Ssf.outcomes.Ssf.q_timed_out
    b.Ssf.outcomes.Ssf.q_timed_out;
  Alcotest.(check int) "by_direct" a.Ssf.success_by_direct b.Ssf.success_by_direct;
  Alcotest.(check int) "by_comb" a.Ssf.success_by_comb b.Ssf.success_by_comb;
  Alcotest.(check (list (pair int (float 0.)))) "trace" a.Ssf.trace b.Ssf.trace;
  Alcotest.(check (list (pair (pair string int) (float 0.))))
    "contributions" a.Ssf.contributions b.Ssf.contributions

let with_tmp name f =
  let path = Filename.temp_file "fmc-campaign" name in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* ------------------------------------------------------------------ *)

(* Both run the one sample loop, so they agree byte for byte under every
   registered fault model, the native disc transient included. *)
let test_campaign_matches_estimate () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  List.iter
    (fun name ->
      let inject = Fmc_fault.Model.injector (Fmc_fault.Registry.parse_exn name) in
      let baseline = Ssf.estimate ~inject e prep ~samples:300 ~seed:11 in
      let r = Campaign.run ~config:no_signals ~inject e prep ~samples:300 ~seed:11 in
      Alcotest.(check bool) (name ^ ": completed") true (r.Campaign.status = Campaign.Completed);
      Alcotest.(check int) (name ^ ": nothing quarantined") 0 (List.length r.Campaign.quarantined);
      Alcotest.(check string) (name ^ ": report bytes") (Export.report_json baseline)
        (Export.report_json r.Campaign.report))
    Fmc_fault.Registry.names

(* One loop, three failure policies: an evaluation exception escapes
   Ssf.estimate (estimate_parallel's batch retry relies on it), is
   quarantined by the campaign entry points, and an exception from a
   shard's per-sample hook (a worker's lost lease) aborts the shard
   instead of quarantining the sample in flight. *)
let test_failure_policies () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let calls = ref 0 in
  let flaky =
    {
      Ssf.disc_transient with
      Ssf.inj_model = "flaky";
      inj_run =
        (fun engine ?cycle_budget rng sample ->
          incr calls;
          if !calls mod 7 = 0 then failwith "flaky evaluation";
          Ssf.disc_transient.Ssf.inj_run engine ?cycle_budget rng sample);
    }
  in
  Alcotest.(check bool) "estimate propagates" true
    (try
       ignore (Ssf.estimate ~inject:flaky e prep ~samples:20 ~seed:11);
       false
     with Failure _ -> true);
  calls := 0;
  let r = Campaign.run ~config:no_signals ~inject:flaky e prep ~samples:20 ~seed:11 in
  Alcotest.(check int) "run quarantines" 2 r.Campaign.report.Ssf.outcomes.Ssf.q_crashed;
  calls := 0;
  let sh = Campaign.run_shard ~inject:flaky e prep ~seed:11 ~shard:0 ~start:40 ~len:20 in
  Alcotest.(check (list int)) "run_shard quarantines at global indices" [ 47; 54 ]
    (List.map (fun q -> q.Campaign.q_index) sh.Campaign.sh_quarantined);
  Alcotest.(check bool) "a raising per-sample hook aborts the shard" true
    (try
       ignore
         (Campaign.run_shard e prep ~seed:11 ~shard:0 ~start:0 ~len:20 ~on_sample:(fun i ->
              if i = 5 then raise Exit));
       false
     with Exit -> true)

(* A sample that raises inside the engine — here half-way through its
   gate-level cycle — is quarantined, and the campaign carries on with the
   same engine: the report equals one whose same samples fail before the
   engine is touched. *)
let test_quarantine_keeps_engine_clean () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let flaky ~poison =
    let calls = ref 0 in
    {
      Ssf.disc_transient with
      Ssf.inj_model = "flaky";
      inj_run =
        (fun engine ?cycle_budget rng sample ->
          incr calls;
          if !calls mod 5 = 0 then begin
            if poison then ignore (Engine.run_sample engine rng { sample with Sampler.width = -1. });
            failwith "flaky evaluation"
          end;
          Ssf.disc_transient.Ssf.inj_run engine ?cycle_budget rng sample);
    }
  in
  let run ~poison = Campaign.run ~config:no_signals ~inject:(flaky ~poison) e prep ~samples:200 ~seed:11 in
  let clean = run ~poison:false in
  let poisoned = run ~poison:true in
  Alcotest.(check int) "quarantined" 40 poisoned.Campaign.report.Ssf.outcomes.Ssf.q_crashed;
  Alcotest.(check string) "report bytes" (Export.report_json clean.Campaign.report)
    (Export.report_json poisoned.Campaign.report)

let test_checkpoint_resume_bit_exact () =
  with_tmp "ckpt" @@ fun path ->
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let uninterrupted = Campaign.run ~config:no_signals e prep ~samples:300 ~seed:11 in
  let config =
    { no_signals with Campaign.checkpoint_path = Some path; Campaign.checkpoint_every = 60 }
  in
  (* Kill the campaign mid-flight via the stop predicate... *)
  let half = Campaign.run ~config ~stop:(fun i -> i >= 150) e prep ~samples:300 ~seed:11 in
  Alcotest.(check bool) "interrupted" true (half.Campaign.status = Campaign.Interrupted);
  Alcotest.(check int) "partial n" 150 half.Campaign.report.Ssf.n;
  (* ...and continue from the durable checkpoint on a fresh engine. *)
  let e2 = Experiments.engine_for (Lazy.force ctx) Programs.illegal_write in
  let resumed = Campaign.resume ~config:no_signals e2 prep ~path in
  Alcotest.(check bool) "resumed to completion" true
    (resumed.Campaign.status = Campaign.Completed);
  check_reports_equal uninterrupted.Campaign.report resumed.Campaign.report

let test_quarantine_accounting () =
  with_tmp "journal" @@ fun journal ->
  Sys.remove journal;
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let fault_hook i _ = if i mod 50 = 0 then failwith "injected evaluation crash" in
  let config = { no_signals with Campaign.journal_path = Some journal } in
  let r = Campaign.run ~config ~fault_hook e prep ~samples:300 ~seed:11 in
  let o = r.Campaign.report.Ssf.outcomes in
  Alcotest.(check int) "quarantined count" 6 o.Ssf.quarantined;
  Alcotest.(check int) "all attributed to the crash guard" 6 o.Ssf.q_crashed;
  Alcotest.(check int) "none to the watchdog" 0 o.Ssf.q_timed_out;
  Alcotest.(check int) "buckets partition n" 300
    (o.Ssf.masked + o.Ssf.mem_only + o.Ssf.resumed + o.Ssf.quarantined);
  Alcotest.(check int) "entries match" 6 (List.length r.Campaign.quarantined);
  List.iter
    (fun (q : Campaign.quarantine_entry) ->
      Alcotest.(check int) "indices are the injected ones" 0 (q.Campaign.q_index mod 50);
      match q.Campaign.q_disposition with
      | Campaign.Crashed msg -> Alcotest.(check bool) "crash message kept" true (String.length msg > 0)
      | Campaign.Timed_out -> Alcotest.fail "expected Crashed")
    r.Campaign.quarantined;
  Alcotest.(check bool) "upper bound dominates" true
    (r.Campaign.report.Ssf.ssf_upper >= r.Campaign.report.Ssf.ssf);
  (* The journal carries one JSON line per quarantined sample. *)
  let ic = open_in journal in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "journal lines" 6 (List.length !lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "looks like JSON" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    !lines

let test_cycle_budget_timeout () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let baseline = Ssf.estimate e prep ~samples:300 ~seed:11 in
  (* A zero budget times out the samples that need RTL resume cycles;
     masked and analytical samples never arm the watchdog, and the RNG
     stream is unaffected (draws happen before evaluation), so the outcome
     split lines up sample-for-sample with the unbudgeted run. A resume
     landing exactly on the halt cycle needs zero further steps and
     legitimately survives the budget, hence the partition check rather
     than strict equality with the baseline's resumed bucket. *)
  let config = { no_signals with Campaign.sample_budget = Some 0 } in
  let r = Campaign.run ~config e prep ~samples:300 ~seed:11 in
  let o = r.Campaign.report.Ssf.outcomes in
  Alcotest.(check int) "resumes partition into survived + timed out"
    baseline.Ssf.outcomes.Ssf.resumed (o.Ssf.resumed + o.Ssf.quarantined);
  Alcotest.(check int) "masked unchanged" baseline.Ssf.outcomes.Ssf.masked o.Ssf.masked;
  Alcotest.(check int) "analytical unchanged" baseline.Ssf.outcomes.Ssf.mem_only o.Ssf.mem_only;
  Alcotest.(check bool) "most resumes time out" true (o.Ssf.quarantined > o.Ssf.resumed);
  Alcotest.(check int) "all attributed to the watchdog" o.Ssf.quarantined o.Ssf.q_timed_out;
  Alcotest.(check int) "none to the crash guard" 0 o.Ssf.q_crashed;
  List.iter
    (fun (q : Campaign.quarantine_entry) ->
      Alcotest.(check bool) "timed out" true (q.Campaign.q_disposition = Campaign.Timed_out))
    r.Campaign.quarantined

let test_merge_reports_pooled_ess () =
  let e = engine () in
  let prep = prepare Sampler.Random in
  let a = Ssf.estimate e prep ~samples:300 ~seed:3 in
  let b = Ssf.estimate e prep ~samples:300 ~seed:4 in
  let m = Ssf.merge_reports [ a; b ] in
  Alcotest.(check int) "n pools" 600 m.Ssf.n;
  exact "sum_w pools" (a.Ssf.sum_w +. b.Ssf.sum_w) m.Ssf.sum_w;
  exact "sum_w2 pools" (a.Ssf.sum_w2 +. b.Ssf.sum_w2) m.Ssf.sum_w2;
  Alcotest.(check (float 1e-9)) "ess is Kish of pooled sums"
    ((m.Ssf.sum_w *. m.Ssf.sum_w) /. m.Ssf.sum_w2)
    m.Ssf.ess;
  (* Plain Monte Carlo draws unit weights, so the pooled ESS must be the
     pooled sample count — the old mean-of-ESS pooling got this wrong for
     any pair of reports with different weight scales. *)
  Alcotest.(check (float 1e-6)) "random strategy: ess = n" 600. m.Ssf.ess;
  (* Pooled estimate is the n-weighted mean. *)
  Alcotest.(check (float 1e-9)) "pooled ssf" ((a.Ssf.ssf +. b.Ssf.ssf) /. 2.) m.Ssf.ssf

let test_dmem_power_of_two_guard () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (try
       ignore (System.create { Programs.illegal_write with Programs.dmem_size = 100 });
       false
     with Invalid_argument msg ->
       (* The message must name the culprit and the constraint. *)
       let has sub =
         let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0
       in
       has "dmem_size" && has "power of two");
  (* Powers of two are accepted unchanged (large enough for the benchmark's
     protected word at 0x300). *)
  ignore (System.create { Programs.illegal_write with Programs.dmem_size = 2048 })

let test_observability_invariance () =
  (* Full instrumentation must never perturb the statistics: metrics,
     spans and progress read the sample stream but not the RNG, so the
     report is bit-identical to an uninstrumented run. *)
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let baseline = Campaign.run ~config:no_signals e prep ~samples:300 ~seed:11 in
  let reg = Fmc_obs.Metrics.create () in
  let tracer = Fmc_obs.Span.create ~capacity:256 () in
  let points = ref 0 in
  let obs =
    Fmc_obs.Obs.create ~metrics:reg ~tracer ~progress:(fun _ -> incr points) ()
  in
  let instrumented = Campaign.run ~config:no_signals ~obs e prep ~samples:300 ~seed:11 in
  check_reports_equal baseline.Campaign.report instrumented.Campaign.report;
  (* ...and the sinks actually saw the run. *)
  Alcotest.(check bool) "progress points emitted" true (!points > 0);
  Alcotest.(check bool) "spans recorded" true (Fmc_obs.Span.recorded tracer > 0);
  let samples_total =
    match List.assoc_opt "fmc_samples_total" (Fmc_obs.Metrics.snapshot reg) with
    | Some (_, Fmc_obs.Metrics.Counter v) -> v
    | _ -> Alcotest.fail "fmc_samples_total missing"
  in
  Alcotest.(check (float 0.)) "sample counter" 300. samples_total;
  Alcotest.(check bool) "engine handle restored" true
    (not (Fmc_obs.Obs.enabled (Engine.obs e)));
  (* Wall-clock accounting is monotone and consistent. *)
  Alcotest.(check bool) "elapsed measured" true (instrumented.Campaign.elapsed_s >= 0.);
  Alcotest.(check bool) "throughput finite" true
    (Float.is_finite instrumented.Campaign.samples_per_sec)

let test_parallel_obs_merge () =
  (* Every worker domain observes into a private fork of the handle; the
     supervisor absorbs them after the join, so the merged metrics cover
     the whole run and the merged trace interleaves per-worker tids. *)
  let prep = prepare Sampler.default_mixed in
  let factory () =
    Engine.create ~precharac:(Experiments.precharac (Lazy.force ctx)) Programs.illegal_write
  in
  let reg = Fmc_obs.Metrics.create () in
  let tracer = Fmc_obs.Span.create ~capacity:4096 () in
  let obs = Fmc_obs.Obs.create ~metrics:reg ~tracer () in
  let baseline =
    Ssf.estimate_parallel ~domains:2 ~causal:false ~engine_factory:factory prep ~samples:600
      ~seed:5
  in
  let r =
    Ssf.estimate_parallel ~domains:2 ~causal:false ~obs ~engine_factory:factory prep
      ~samples:600 ~seed:5
  in
  exact "deterministic under obs" baseline.Ssf.ssf r.Ssf.ssf;
  (match List.assoc_opt "fmc_samples_total" (Fmc_obs.Metrics.snapshot reg) with
  | Some (_, Fmc_obs.Metrics.Counter v) -> exact "workers' counters merged" 600. v
  | _ -> Alcotest.fail "fmc_samples_total missing");
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Fmc_obs.Span.ev_tid) (Fmc_obs.Span.events tracer))
  in
  Alcotest.(check bool) "per-worker tids present" true (List.length tids >= 1 && List.for_all (fun t -> t >= 1) tids)

let test_corrupt_checkpoint_rejected () =
  with_tmp "corrupt" @@ fun path ->
  let oc = open_out path in
  output_string oc "faultmc-campaign 1\nstrategy mixed\nnot a valid line\n";
  close_out oc;
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  Alcotest.(check bool) "corrupt file raises" true
    (try
       ignore (Campaign.resume ~config:no_signals e prep ~path);
       false
     with Campaign.Checkpoint_corrupt { path = p; _ } -> p = path);
  (* Any version but v5 — a future one, or the retired pre-model v4 — is
     refused for its version, before the rest is read. *)
  let unsupported reason =
    let key = "unsupported checkpoint version" in
    String.length reason >= String.length key && String.sub reason 0 (String.length key) = key
  in
  List.iter
    (fun header ->
      let oc = open_out path in
      output_string oc (header ^ "\n");
      close_out oc;
      Alcotest.(check bool) (header ^ " raises") true
        (try
           ignore (Campaign.resume ~config:no_signals e prep ~path);
           false
         with Campaign.Checkpoint_corrupt { path = p; reason } -> p = path && unsupported reason))
    [ "faultmc-campaign 99"; "faultmc-campaign 4" ]

let () =
  Alcotest.run "campaign"
    [
      ( "campaign",
        [
          Alcotest.test_case "matches Ssf.estimate" `Slow test_campaign_matches_estimate;
          Alcotest.test_case "failure policies" `Slow test_failure_policies;
          Alcotest.test_case "quarantine keeps the engine clean" `Slow
            test_quarantine_keeps_engine_clean;
          Alcotest.test_case "checkpoint/resume bit-exact" `Slow test_checkpoint_resume_bit_exact;
          Alcotest.test_case "quarantine accounting" `Slow test_quarantine_accounting;
          Alcotest.test_case "cycle-budget timeout" `Slow test_cycle_budget_timeout;
          Alcotest.test_case "merge pooled ess" `Slow test_merge_reports_pooled_ess;
          Alcotest.test_case "observability invariance" `Slow test_observability_invariance;
          Alcotest.test_case "parallel obs merge" `Slow test_parallel_obs_merge;
          Alcotest.test_case "dmem power-of-two guard" `Quick test_dmem_power_of_two_guard;
          Alcotest.test_case "corrupt checkpoint rejected" `Quick test_corrupt_checkpoint_rejected;
        ] );
    ]
