(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (DESIGN.md experiment index EXP-F4 .. EXP-H).
   Per-layer timings of the hot kernels live in perfbench/ instead.

   Run: dune exec bench/main.exe
   Fast mode (CI-sized sample counts): dune exec bench/main.exe -- --fast *)

let ppf = Format.std_formatter

let section title =
  Format.fprintf ppf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let scale n = if fast then max 200 (n / 10) else n in
  let t0 = Unix.gettimeofday () in
  section "Setup: processor build + system pre-characterization";
  let ctx = Fmc.Experiments.context () in
  let circuit = Fmc.Experiments.circuit ctx in
  Format.fprintf ppf "%a@." Fmc_netlist.Netlist.pp_summary circuit.Fmc_cpu.Circuit.net;
  Format.fprintf ppf "pre-characterization done in %.1fs@." (Unix.gettimeofday () -. t0);

  section "EXP-F4 (Fig 4): register characterization parameters";
  Format.fprintf ppf "%a@." Fmc.Report.fig4 (Fmc.Experiments.fig4 ctx);

  section "EXP-F7 (Fig 7): gate-level bit-error patterns";
  Format.fprintf ppf "%a@." Fmc.Report.fig7 (Fmc.Experiments.fig7 ~strikes:(scale 3000) ctx);

  section "EXP-F8 (Fig 8): importance-sampling distribution and sample space";
  Format.fprintf ppf "%a@." Fmc.Report.fig8 (Fmc.Experiments.fig8 ctx);

  section "EXP-F9 (Fig 9): convergence of sampling strategies";
  Format.fprintf ppf "%a@." Fmc.Report.fig9 (Fmc.Experiments.fig9 ~samples:(scale 10_000) ctx);

  section "EXP-F9b: all three security policies (mixed strategy)";
  List.iter
    (fun (benchmark : Fmc_isa.Programs.t) ->
      let engine = Fmc.Experiments.engine_for ctx benchmark in
      let prep =
        Fmc.Sampler.prepare
          ~static_vuln:(Fmc.Engine.static_vulnerable engine)
          Fmc.Sampler.default_mixed
          (Fmc.Experiments.default_attack ctx)
          (Fmc.Experiments.precharac ctx)
          ~placement:(Fmc.Engine.placement engine)
      in
      let r = Fmc.Ssf.estimate engine prep ~samples:(scale 6000) ~seed:7 in
      let top =
        match r.Fmc.Ssf.contributions with
        | ((g, b), _) :: _ -> Printf.sprintf "%s[%d]" g b
        | [] -> "-"
      in
      Format.fprintf ppf "  %-14s SSF %.4f  var %.3e  successes %4d  top causal bit %s@."
        benchmark.Fmc_isa.Programs.name r.Fmc.Ssf.ssf r.Fmc.Ssf.variance r.Fmc.Ssf.successes top)
    [ Fmc_isa.Programs.illegal_write; Fmc_isa.Programs.illegal_read; Fmc_isa.Programs.illegal_exec ];

  section "EXP-F10 (Fig 10): combinational vs sequential strikes";
  Format.fprintf ppf "%a@." Fmc.Report.fig10 (Fmc.Experiments.fig10 ~samples:(scale 8000) ctx);

  section "EXP-F11 (Fig 11): impact of temporal and spatial accuracy";
  Format.fprintf ppf "%a@." Fmc.Report.fig11 (Fmc.Experiments.fig11 ~samples:(scale 4000) ctx);

  section "EXP-H: critical registers and hardening trade-off";
  Format.fprintf ppf "%a@." Fmc.Report.headline (Fmc.Experiments.headline ~samples:(scale 10_000) ctx);

  section "EXP-ABL: ablations of the framework's design choices";
  let abl_engine = Fmc.Experiments.engine_for ctx Fmc_isa.Programs.illegal_write in
  let abl_placement = Fmc.Engine.placement abl_engine in
  let abl_attack = Fmc.Experiments.default_attack ctx in
  let abl_pre = Fmc.Experiments.precharac ctx in
  let abl_sv = Fmc.Engine.static_vulnerable abl_engine in
  let abl_n = scale 6000 in
  let run_strategy strat =
    let prep = Fmc.Sampler.prepare ~static_vuln:abl_sv strat abl_attack abl_pre ~placement:abl_placement in
    Fmc.Ssf.estimate ~causal:false abl_engine prep ~samples:abl_n ~seed:7
  in
  Format.fprintf ppf "-- correlation bonus alpha (Mixed, %d samples) --@." abl_n;
  List.iter
    (fun alpha ->
      let r = run_strategy (Fmc.Sampler.Mixed { alpha; beta = 1.; dead_weight = 0.1; v_allocation = 0.5 }) in
      Format.fprintf ppf "  alpha=%5.1f : SSF %.4f  var %.3e@." alpha r.Fmc.Ssf.ssf r.Fmc.Ssf.variance)
    [ 0.; 8.; 30. ];
  Format.fprintf ppf "-- vulnerable-stratum allocation (Mixed) --@.";
  List.iter
    (fun va ->
      let r = run_strategy (Fmc.Sampler.Mixed { alpha = 8.; beta = 1.; dead_weight = 0.1; v_allocation = va }) in
      Format.fprintf ppf "  v_alloc=%.2f : SSF %.4f  var %.3e@." va r.Fmc.Ssf.ssf r.Fmc.Ssf.variance)
    [ 0.25; 0.5; 0.75 ];
  Format.fprintf ppf "-- lifetime gate beta / dead-cell down-weighting (Importance) --@.";
  List.iter
    (fun (beta, dw) ->
      let r =
        run_strategy (Fmc.Sampler.Importance { alpha = 8.; beta; dead_weight = dw; gamma = 60. })
      in
      Format.fprintf ppf "  beta=%.1f dead_weight=%.2f : SSF %.4f  var %.3e@." beta dw r.Fmc.Ssf.ssf
        r.Fmc.Ssf.variance)
    [ (1., 1.); (1., 0.1); (2., 0.1) ];
  Format.fprintf ppf "-- static-vulnerability prior gamma (Importance) --@.";
  List.iter
    (fun gamma ->
      let r =
        run_strategy (Fmc.Sampler.Importance { alpha = 8.; beta = 1.; dead_weight = 0.1; gamma })
      in
      Format.fprintf ppf "  gamma=%5.1f : SSF %.4f  var %.3e@." gamma r.Fmc.Ssf.ssf r.Fmc.Ssf.variance)
    [ 0.; 60.; 300. ];

  Format.fprintf ppf "-- multi-cycle impact window (Random, %d samples) --@." abl_n;
  List.iter
    (fun k ->
      let prep =
        Fmc.Sampler.prepare ~static_vuln:abl_sv Fmc.Sampler.Random abl_attack abl_pre
          ~placement:abl_placement
      in
      let r =
        Fmc.Ssf.estimate ~causal:false
          ~inject:(Fmc.Ssf.disc_ablation ~impact_cycles:k ())
          abl_engine prep ~samples:abl_n ~seed:7
      in
      Format.fprintf ppf "  impact=%d cycle(s) : SSF %.4f@." k r.Fmc.Ssf.ssf)
    [ 1; 2; 4 ];

  section "EXP-GLITCH: clock-glitch technique (holistic-model extension)";
  let critical = Fmc.Engine.glitch_critical_path abl_engine in
  let tt = Fmc.Golden.target_cycle (Fmc.Engine.golden abl_engine) in
  Format.fprintf ppf "critical path: %.0f ps (nominal period %.0f ps)@." critical
    (Fmc.Engine.transient_config abl_engine).Fmc_gatesim.Transient.clock_period;
  let glitch_rng = Fmc_prelude.Rng.create 5 in
  List.iter
    (fun frac ->
      let period = frac *. critical in
      let n = scale 2000 in
      let succ = ref 0 and stale_total = ref 0 in
      for _ = 1 to n do
        let te = max 1 (tt - Fmc_prelude.Rng.int glitch_rng 50) in
        let r = Fmc.Engine.run_glitch abl_engine ~te ~period in
        if r.Fmc.Engine.g_success then incr succ;
        stale_total := !stale_total + List.length r.Fmc.Engine.g_stale
      done;
      Format.fprintf ppf "  period %4.0f%% of critical : SSF %.4f  avg stale bits %.1f@."
        (100. *. frac)
        (float_of_int !succ /. float_of_int n)
        (float_of_int !stale_total /. float_of_int n))
    [ 1.05; 0.95; 0.85; 0.7; 0.5 ];

  section "EXP-DFA: scenario 2 — key leakage from the TOYSPN crypto core";
  let ccirc = Fmc_crypto.Core_circuit.build () in
  let charness = Fmc_crypto.Harness.create ccirc in
  let ckey = 0x7E57 and cpt = 0x1234 in
  let ccorrect = Fmc_crypto.Cipher.encrypt ~key:ckey cpt in
  let cplacement = Fmc_layout.Placement.place ~seed:2 ccirc.Fmc_crypto.Core_circuit.net in
  let cconfig = Fmc_gatesim.Transient.default_config ccirc.Fmc_crypto.Core_circuit.net in
  let ccells = Fmc_layout.Placement.cells cplacement in
  let crng = Fmc_prelude.Rng.create 11 in
  let ctrials = scale 6000 in
  let cinfo = ref 0 in
  for _ = 1 to ctrials do
    let center = Fmc_prelude.Rng.choose crng ccells in
    let strikes =
      Array.to_list
        (Fmc_layout.Placement.within cplacement ~center
           ~radius:(0.8 +. Fmc_prelude.Rng.float crng 1.4))
      |> List.map (fun node ->
             {
               Fmc_gatesim.Transient.node;
               time = Fmc_prelude.Rng.float crng cconfig.Fmc_gatesim.Transient.clock_period;
               width = 100. +. Fmc_prelude.Rng.float crng 250.;
             })
    in
    let cycle = 1 + Fmc_prelude.Rng.int crng Fmc_crypto.Cipher.rounds in
    let faulty =
      Fmc_crypto.Harness.encrypt_with_strikes charness ~key:ckey ~plaintext:cpt ~cycle ~strikes
        cconfig
    in
    if Fmc_crypto.Dfa.informative ~correct:ccorrect ~faulty then incr cinfo
  done;
  Format.fprintf ppf "blind-strike leakage SSF: %.3f (%d / %d DFA-usable faulty ciphertexts)@."
    (float_of_int !cinfo /. float_of_int ctrials)
    !cinfo ctrials;
  let xr = Fmc_crypto.Core_circuit.last_round_xor_gates ccirc in
  let st = ref (Fmc_crypto.Dfa.start ~correct:ccorrect) in
  let shots = ref 0 in
  let recovered = ref None in
  while !recovered = None && !shots < 20_000 do
    incr shots;
    let node = Fmc_prelude.Rng.choose crng xr in
    let faulty =
      Fmc_crypto.Harness.encrypt_with_strikes charness ~key:ckey ~plaintext:cpt
        ~cycle:Fmc_crypto.Cipher.rounds
        ~strikes:
          [
            {
              Fmc_gatesim.Transient.node;
              time = Fmc_prelude.Rng.float crng cconfig.Fmc_gatesim.Transient.clock_period;
              width = 120. +. Fmc_prelude.Rng.float crng 200.;
            };
          ]
        cconfig
    in
    if Fmc_crypto.Dfa.informative ~correct:ccorrect ~faulty then
      st := Fmc_crypto.Dfa.observe !st ~faulty;
    recovered := Fmc_crypto.Dfa.recovered_whitening_key !st
  done;
  (match !recovered with
  | Some wk ->
      Format.fprintf ppf "targeted last-round DFA: master key recovered after %d strikes (%s)@."
        !shots
        (if Fmc_crypto.Dfa.master_key_of_whitening wk = ckey then "correct" else "WRONG")
  | None -> Format.fprintf ppf "targeted DFA did not converge in %d strikes@." !shots);

  Format.fprintf ppf "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
