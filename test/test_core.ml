(* Tests for the fmc core framework: attack model, golden runs,
   pre-characterization, sampling strategies, the cross-level engine, SSF
   estimation and hardening. Heavier fixtures (processor +
   pre-characterization) are built once and shared. *)

module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module Programs = Fmc_isa.Programs
module Isa = Fmc_isa.Isa
module Arch = Fmc_cpu.Arch
module System = Fmc_cpu.System
module Circuit = Fmc_cpu.Circuit
module Rng = Fmc_prelude.Rng
open Fmc

let ctx = lazy (Experiments.context ())

let engine () = Experiments.engine_for (Lazy.force ctx) Programs.illegal_write

let placement () = Engine.placement (engine ())

let attack () = Experiments.default_attack (Lazy.force ctx)

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_dist_uniform () =
  let d = Dist.Uniform_int (3, 7) in
  Dist.validate_int d;
  Alcotest.(check (list int)) "support" [ 3; 4; 5; 6; 7 ] (Dist.support_int d);
  Alcotest.(check (float 1e-9)) "pmf inside" 0.2 (Dist.pmf_int d 5);
  Alcotest.(check (float 1e-9)) "pmf outside" 0. (Dist.pmf_int d 8);
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let v = Dist.sample_int d rng in
    Alcotest.(check bool) "in range" true (v >= 3 && v <= 7)
  done

let test_dist_delta_and_discrete () =
  Alcotest.(check (float 1e-9)) "delta pmf" 1. (Dist.pmf_int (Dist.Delta_int 4) 4);
  Alcotest.(check (float 1e-9)) "delta off" 0. (Dist.pmf_int (Dist.Delta_int 4) 5);
  let d = Dist.Discrete ([| 1; 5; 9 |], [| 1.; 0.; 3. |]) in
  Dist.validate_int d;
  Alcotest.(check (list int)) "support skips zero weight" [ 1; 9 ] (Dist.support_int d);
  Alcotest.(check (float 1e-9)) "pmf" 0.75 (Dist.pmf_int d 9);
  Alcotest.check_raises "empty uniform" (Invalid_argument "Dist: empty uniform range") (fun () ->
      Dist.validate_int (Dist.Uniform_int (5, 4)))

let test_dist_float () =
  let rng = Rng.create 2 in
  for _ = 1 to 200 do
    let v = Dist.sample_float (Dist.Uniform_float (1.5, 2.5)) rng in
    Alcotest.(check bool) "in range" true (v >= 1.5 && v < 2.5)
  done;
  Alcotest.(check (float 1e-9)) "degenerate" 3. (Dist.sample_float (Dist.Uniform_float (3., 3.)) rng)

(* ------------------------------------------------------------------ *)
(* Attack *)

let test_attack_block_around () =
  let p = placement () in
  let circuit = Experiments.circuit (Lazy.force ctx) in
  let roots = Circuit.responding_signals circuit in
  let all = Fmc_layout.Placement.cells p in
  let half = Attack.block_around p ~roots ~fraction:0.5 in
  let quarter = Attack.block_around p ~roots ~fraction:0.25 in
  Alcotest.(check bool) "half smaller than all" true (Array.length half < Array.length all);
  Alcotest.(check bool) "quarter smaller than half" true (Array.length quarter < Array.length half);
  Alcotest.(check bool) "roughly half" true
    (abs ((2 * Array.length half) - Array.length all) < Array.length all / 10);
  (* The quarter block is contained in the half block (same centroid). *)
  Alcotest.(check bool) "nested" true (Array.for_all (fun c -> Array.mem c half) quarter);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Attack.block_around: fraction out of (0, 1]")
    (fun () -> ignore (Attack.block_around p ~roots ~fraction:0.))

let test_attack_pmf_spatial () =
  let cells = [| 10; 20; 30; 40 |] in
  let sp = Attack.Uniform_cells cells in
  Alcotest.(check (float 1e-9)) "member" 0.25 (Attack.pmf_spatial sp 20);
  Alcotest.(check (float 1e-9)) "non-member" 0. (Attack.pmf_spatial sp 99);
  Alcotest.(check (float 1e-9)) "delta" 1. (Attack.pmf_spatial (Attack.Delta_cell 7) 7);
  Alcotest.(check (array int)) "cells" cells (Attack.spatial_cells sp)

let test_attack_validate () =
  let a = attack () in
  Attack.validate a;
  Alcotest.check_raises "empty block" (Invalid_argument "Attack.validate: empty target block")
    (fun () -> Attack.validate { a with Attack.spatial = Attack.Uniform_cells [||] });
  (* Negative timing distances are allowed (shots after the target). *)
  Attack.validate { a with Attack.temporal = Dist.Uniform_int (-5, 5) }

(* ------------------------------------------------------------------ *)
(* Golden *)

let test_golden_target_cycle () =
  let g = Golden.run Programs.illegal_write in
  Alcotest.(check bool) "target before halt" true (Golden.target_cycle g < Golden.halt_cycle g);
  Alcotest.(check bool) "target deep in user code" true (Golden.target_cycle g > 50);
  (* The instruction at the target cycle is the illegal store. *)
  let st = Golden.state_at g (Golden.target_cycle g) in
  let word = Programs.illegal_write.Programs.imem.(st.Arch.pc) in
  (match Isa.decode word with
  | Isa.St (_, _, _) -> ()
  | i -> Alcotest.failf "expected a store at Tt, got %s" (Isa.to_string i));
  Alcotest.(check int) "user mode at Tt" 0 st.Arch.mode

let test_golden_restore_at () =
  let g = Golden.run Programs.illegal_write in
  let sys = Golden.restore_at g 57 in
  Alcotest.(check int) "exact cycle" 57 (System.cycle sys);
  (* Restarting from a checkpoint replays identically: compare two paths. *)
  let a = Golden.state_at g 100 in
  let direct = System.create Programs.illegal_write in
  System.run_to_cycle direct 100;
  Alcotest.(check bool) "checkpoint replay equals direct run" true (Arch.equal a (System.state direct))

let test_golden_observables () =
  let g = Golden.run Programs.illegal_write in
  Alcotest.(check (list int)) "secret intact" [ Programs.secret_value ] (Golden.final_observables g);
  let g = Golden.run Programs.illegal_read in
  Alcotest.(check (list int)) "nothing leaked" [ 0 ] (Golden.final_observables g)

let test_golden_broken_benchmark () =
  (* A benchmark claiming an attack that never happens must be rejected. *)
  let bogus =
    {
      Programs.illegal_write with
      Programs.name = "bogus";
      imem = [| Isa.encode Isa.Halt |];
      max_cycles = 10;
    }
  in
  Alcotest.check_raises "no violation" (Failure "Golden.run: benchmark bogus never raised its violation")
    (fun () -> ignore (Golden.run bogus))

(* ------------------------------------------------------------------ *)
(* Precharac *)

let test_precharac_levels () =
  let pre = Experiments.precharac (Lazy.force ctx) in
  let l0 = Precharac.level pre 0 in
  Alcotest.(check bool) "level 0 has gates" true (Array.length l0.Fmc_netlist.Unroll.gates > 0);
  Alcotest.(check int) "level 0 has no registers" 0 (Array.length l0.Fmc_netlist.Unroll.registers);
  let l1 = Precharac.level pre 1 in
  Alcotest.(check bool) "level 1 has registers" true (Array.length l1.Fmc_netlist.Unroll.registers > 0);
  (* Beyond the computed depth: empty, no exception. *)
  let beyond = Precharac.level pre (Precharac.depth pre + 5) in
  Alcotest.(check int) "beyond depth empty" 0 (Array.length beyond.Fmc_netlist.Unroll.gates)

let test_precharac_correlation_bounds () =
  let pre = Experiments.precharac (Lazy.force ctx) in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  Array.iter
    (fun g ->
      let c = Precharac.correlation pre g ~shift:1 in
      Alcotest.(check bool) "corr in [0,1]" true (c >= 0. && c <= 1.))
    (Array.sub (N.gates net) 0 200)

let test_precharac_memory_classification () =
  let pre = Experiments.precharac (Lazy.force ctx) in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let mem = Precharac.memory_type_registers pre in
  Alcotest.(check bool) "some memory-type registers" true (Array.length mem > 10);
  Alcotest.(check bool) "not all registers" true (Array.length mem < Array.length (N.dffs net));
  (* All memory-type registers are cone registers. *)
  let cone = Precharac.cone_registers pre in
  Alcotest.(check bool) "memory-type subset of cone" true
    (Array.for_all (fun r -> Array.mem r cone) mem);
  (* pc changes every cycle: must be computation-type. *)
  let pc0 = (N.register_group net "pc").(0) in
  Alcotest.(check bool) "pc bit 0 is computation-type" false (Precharac.memory_type pre pc0)

let test_precharac_gate_lifetime () =
  let pre = Experiments.precharac (Lazy.force ctx) in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  Array.iter
    (fun g -> Alcotest.(check bool) "lifetime >= 0" true (Precharac.gate_lifetime pre g >= 0.))
    (N.gates net);
  (* A register's gate-lifetime is its own measured lifetime. *)
  let lt = Precharac.lifetimes pre in
  Array.iter
    (fun d ->
      Alcotest.(check (float 1e-9)) "dff lifetime consistent" (Lifetime.lifetime lt d)
        (Precharac.gate_lifetime pre d))
    (Precharac.cone_registers pre)

let test_lifetime_statistics_sane () =
  let pre = Experiments.precharac (Lazy.force ctx) in
  let stats = Lifetime.all (Precharac.lifetimes pre) in
  Alcotest.(check bool) "characterized registers" true (Array.length stats > 100);
  Array.iter
    (fun (s : Lifetime.stats) ->
      Alcotest.(check bool) "lifetime positive" true (s.Lifetime.lifetime >= 1.);
      Alcotest.(check bool) "lifetime capped" true (s.Lifetime.lifetime <= 200.);
      Alcotest.(check bool) "contamination non-negative" true (s.Lifetime.contamination >= 0.))
    stats

(* The per-shift kernel against its definition: the largest
   [Bitvec.correlation] over the responding signals, on signatures recorded
   afresh over the same synthetic-benchmark cycles as [Precharac.run]. *)
let correlation_kernel_oracle =
  let pre = lazy (Experiments.precharac (Lazy.force ctx)) in
  let oracle =
    lazy
      (let circuit = Experiments.circuit (Lazy.force ctx) in
       let golden = Golden.run Programs.synthetic in
       let cycles = max 2 (min 600 (Golden.halt_cycle golden)) in
       let sigrec = Sigrec.record (Fmc_cpu.Netsys.create circuit Programs.synthetic) ~cycles in
       let rs = Circuit.responding_signals circuit in
       fun node ~shift ->
         List.fold_left
           (fun acc r ->
             Float.max acc
               (Fmc_prelude.Bitvec.correlation (Sigrec.switches sigrec node)
                  (Sigrec.switches sigrec r) ~shift))
           0. rs)
  in
  QCheck.Test.make ~name:"correlation kernel = Bitvec oracle" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_range (-3) 50))
    (fun (node, shift) ->
      let pre = Lazy.force pre in
      let node = node mod N.num_nodes (Precharac.circuit pre).Circuit.net in
      let expect = (Lazy.force oracle) node ~shift in
      Precharac.correlation_kernel pre ~shift node = expect
      && Precharac.correlation pre node ~shift = expect)

(* [Lifetime]'s injection trial as it was before it diffed states by group
   index: every group compared by name on every step, contaminated bits
   keyed on (group name, bit). Kept as the reference. *)
let reference_trial (config : Lifetime.config) golden ~group ~bit ~cycle =
  let gold = Golden.restore_at golden cycle in
  let fault = Golden.restore_at golden cycle in
  let st = System.state fault in
  Arch.set_group st group (Arch.get_group st group lxor (1 lsl bit));
  let contaminated = Hashtbl.create 8 in
  let lifetime = ref config.Lifetime.horizon in
  (try
     for step = 1 to config.Lifetime.horizon do
       ignore (System.step gold);
       ignore (System.step fault);
       let gs = System.state gold and fs = System.state fault in
       let converged = ref true in
       List.iter
         (fun (g, _) ->
           let diff = Arch.get_group gs g lxor Arch.get_group fs g in
           if diff <> 0 then begin
             converged := false;
             let b = ref 0 and d = ref diff in
             while !d <> 0 do
               if !d land 1 = 1 && not (g = group && !b = bit) then
                 Hashtbl.replace contaminated (g, !b) ();
               d := !d lsr 1;
               incr b
             done
           end)
         Arch.groups;
       if !converged then begin
         lifetime := step;
         raise Exit
       end
     done
   with Exit -> ());
  (float_of_int !lifetime, float_of_int (Hashtbl.length contaminated))

let test_lifetime_matches_reference () =
  let pre = Experiments.precharac (Lazy.force ctx) in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let golden = Golden.run Programs.synthetic in
  let dffs = Precharac.cone_registers pre in
  let config = Lifetime.default_config in
  let lifetimes = Lifetime.characterize ~config net ~golden ~dffs ~rng:(Rng.create 5) in
  (* [characterize]'s draws: [trials] injection cycles per register, in
     register order. *)
  let rng = Rng.create 5 in
  let last_cycle = max 1 (Golden.halt_cycle golden - 1) in
  let trials = float_of_int config.Lifetime.trials in
  let contaminating = ref 0 in
  Array.iter
    (fun dff ->
      let group, bit = N.dff_group net dff in
      let lsum = ref 0. and csum = ref 0. in
      for _ = 1 to config.Lifetime.trials do
        let cycle = Rng.int_in rng 1 last_cycle in
        let l, c = reference_trial config golden ~group ~bit ~cycle in
        lsum := !lsum +. l;
        csum := !csum +. c
      done;
      let lifetime = !lsum /. trials and contamination = !csum /. trials in
      let s = Lifetime.stats lifetimes dff in
      let what = Printf.sprintf "%s[%d] " group bit in
      Alcotest.(check (float 0.)) (what ^ "lifetime") lifetime s.Lifetime.lifetime;
      Alcotest.(check (float 0.)) (what ^ "contamination") contamination s.Lifetime.contamination;
      Alcotest.(check bool) (what ^ "memory type")
        (lifetime >= config.Lifetime.lifetime_threshold
        && contamination <= config.Lifetime.contamination_threshold)
        s.Lifetime.memory_type;
      if contamination > 0. then incr contaminating)
    dffs;
  Alcotest.(check bool) "some registers contaminate others" true (!contaminating > 0)

(* ------------------------------------------------------------------ *)
(* Sampler *)

let prepare strategy =
  let e = engine () in
  Sampler.prepare ~static_vuln:(Engine.static_vulnerable e) strategy (attack ())
    (Experiments.precharac (Lazy.force ctx))
    ~placement:(placement ())

let test_sampler_random_draws () =
  let prep = prepare Sampler.Random in
  let rng = Rng.create 3 in
  let block = Attack.spatial_cells (attack ()).Attack.spatial in
  for _ = 1 to 200 do
    let s = Sampler.draw prep rng in
    Alcotest.(check bool) "t in window" true (s.Sampler.t >= 0 && s.Sampler.t <= 49);
    Alcotest.(check bool) "center in block" true (Array.mem s.Sampler.center block);
    Alcotest.(check (float 1e-9)) "weight 1" 1. s.Sampler.weight;
    Alcotest.(check bool) "stratum all" true (s.Sampler.stratum = Sampler.All)
  done

let test_sampler_temporal_pmf_normalized () =
  List.iter
    (fun strat ->
      let prep = prepare strat in
      let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. (Sampler.temporal_pmf prep) in
      Alcotest.(check (float 1e-6)) (Sampler.strategy_name strat ^ " g_T sums to 1") 1. total)
    [ Sampler.Random; Sampler.Fanin_cone; Sampler.default_importance; Sampler.default_mixed ]

let test_sampler_weights_positive () =
  List.iter
    (fun strat ->
      let prep = prepare strat in
      let rng = Rng.create 5 in
      for _ = 1 to 300 do
        let s = Sampler.draw prep rng in
        Alcotest.(check bool) "weight positive and finite" true
          (s.Sampler.weight > 0. && Float.is_finite s.Sampler.weight)
      done)
    [ Sampler.Fanin_cone; Sampler.default_importance; Sampler.default_mixed ]

let test_sampler_strata () =
  let prep = prepare Sampler.default_mixed in
  let strata = Sampler.strata prep in
  Alcotest.(check int) "two strata" 2 (List.length strata);
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0. strata in
  Alcotest.(check (float 1e-9)) "masses sum to 1" 1. total;
  let mv = List.assoc Sampler.Vulnerable strata in
  Alcotest.(check bool) "vulnerable stratum non-trivial" true (mv > 0. && mv < 0.5);
  let prep = prepare Sampler.Random in
  Alcotest.(check bool) "random single stratum" true (Sampler.strata prep = [ (Sampler.All, 1.) ])

let test_sampler_sample_space_reduction () =
  let random_space = Sampler.sample_space_size (prepare Sampler.Random) in
  let cone_space = Sampler.sample_space_size (prepare Sampler.Fanin_cone) in
  Alcotest.(check bool) "cone space not larger" true (cone_space <= random_space)

let test_sampler_mixed_stratum_tags () =
  let prep = prepare Sampler.default_mixed in
  let rng = Rng.create 9 in
  let v = ref 0 and r = ref 0 in
  for _ = 1 to 400 do
    match (Sampler.draw prep rng).Sampler.stratum with
    | Sampler.Vulnerable -> incr v
    | Sampler.Rest -> incr r
    | Sampler.All -> Alcotest.fail "mixed draw tagged All"
  done;
  (* Allocation is 0.5: both strata sampled in fair proportion. *)
  Alcotest.(check bool) "both strata drawn" true (!v > 100 && !r > 100)

(* ------------------------------------------------------------------ *)
(* Analytical *)

let test_analytical () =
  let program = Programs.illegal_write in
  let base = Golden.state_at (Engine.golden (engine ())) (Golden.target_cycle (Engine.golden (engine ()))) in
  Alcotest.(check bool) "golden config denies" false
    (Analytical.evaluate ~program ~corrupted:base);
  (* Widen region 0's limit over the secret: grants the write. *)
  let wide = Arch.copy base in
  wide.Arch.mpu_limit.(0) <- wide.Arch.mpu_limit.(0) lor 0x200;
  Alcotest.(check bool) "widened limit grants" true (Analytical.evaluate ~program ~corrupted:wide);
  (* But breaking the exec region defeats the attack. *)
  let broken = Arch.copy wide in
  broken.Arch.mpu_ctrl.(1) <- 0;
  Alcotest.(check bool) "broken exec region fails" false
    (Analytical.evaluate ~program ~corrupted:broken);
  (* No metadata: never succeeds. *)
  Alcotest.(check bool) "synthetic has no attack" false
    (Analytical.evaluate ~program:Programs.synthetic ~corrupted:wide)

let test_static_vulnerable () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let vuln = Engine.static_vulnerable e in
  (* mode bit: privilege escalation. *)
  Alcotest.(check bool) "mode bit vulnerable" true (vuln (N.register_group net "mode").(0));
  (* limit0 high bits widen region 0 over the secret (0x300). *)
  Alcotest.(check bool) "limit0 bit 9 vulnerable" true (vuln (N.register_group net "mpu_limit0").(9));
  (* limit0 low bit cannot reach the secret. *)
  Alcotest.(check bool) "limit0 bit 0 not vulnerable" false (vuln (N.register_group net "mpu_limit0").(0));
  (* A register-file scratch register is not decisive. *)
  Alcotest.(check bool) "reg4 bit 3 not vulnerable" false (vuln (N.register_group net "reg4").(3))

(* ------------------------------------------------------------------ *)
(* Engine *)

let mk_sample ?(t = 5) ?(radius = 0.3) ?(width = 200.) ?(time_frac = 0.5) center =
  {
    Sampler.t;
    center;
    radius;
    width;
    time_frac;
    weight = 1.;
    stratum = Sampler.All;
  }

let test_engine_direct_vulnerable_flip_succeeds () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let rng = Rng.create 4 in
  (* Radius below the cell pitch: exactly the center flips. Flipping
     limit0[9] widens region 0 over the secret; it persists, so the attack
     must succeed at any positive timing distance. *)
  let dff = (N.register_group net "mpu_limit0").(9) in
  let r = Engine.run_sample e rng (mk_sample ~t:7 dff) in
  Alcotest.(check bool) "success" true r.Engine.success;
  Alcotest.(check (list (pair string int))) "flips" [ ("mpu_limit0", 9) ] r.Engine.flips;
  Alcotest.(check int) "one direct hit" 1 (Array.length r.Engine.direct)

let test_engine_benign_flip_fails () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let rng = Rng.create 4 in
  (* reg0 is unused by the benchmark: flipping it changes nothing
     observable. *)
  let dff = (N.register_group net "reg0").(2) in
  let r = Engine.run_sample e rng (mk_sample ~t:3 dff) in
  Alcotest.(check bool) "no success" false r.Engine.success;
  Alcotest.(check bool) "flip recorded" true (List.mem ("reg0", 2) r.Engine.flips)

let test_engine_past_target_fails () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let rng = Rng.create 4 in
  (* Negative timing distance: injection after the target cycle; even the
     decisive bit cannot help anymore. *)
  let dff = (N.register_group net "mpu_limit0").(9) in
  let r = Engine.run_sample e rng (mk_sample ~t:(-3) dff) in
  Alcotest.(check bool) "late shot fails" false r.Engine.success

let test_engine_te_before_reset_masked () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let rng = Rng.create 4 in
  let dff = (N.register_group net "mpu_limit0").(9) in
  let tt = Golden.target_cycle (Engine.golden e) in
  let r = Engine.run_sample e rng (mk_sample ~t:(tt + 10) dff) in
  Alcotest.(check bool) "before reset masked" true (r.Engine.outcome = Engine.Masked)

let test_engine_deterministic () =
  let e = engine () in
  let prep = prepare Sampler.Random in
  let run () =
    let rng = Rng.create 31 in
    List.init 50 (fun _ ->
        let s = Sampler.draw prep rng in
        (Engine.run_sample e rng s).Engine.success)
  in
  Alcotest.(check (list bool)) "same seed, same outcomes" (run ()) (run ())

let test_engine_hardening_blocks_flips () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let dff = (N.register_group net "mpu_limit0").(9) in
  let rng = Rng.create 77 in
  (* With resilience ~infinity every flip on the hardened register dies. *)
  let survived = ref 0 in
  for _ = 1 to 50 do
    let r =
      Engine.run_sample e ~hardened:(fun d -> d = dff) ~resilience:1e12 rng (mk_sample ~t:4 dff)
    in
    if r.Engine.success then incr survived
  done;
  Alcotest.(check int) "all blocked" 0 !survived

let test_engine_cell_filter () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let rng = Rng.create 5 in
  let dff = (N.register_group net "mpu_limit0").(9) in
  (* Filtering out sequential cells turns the same strike into a no-op. *)
  let keep_comb c = match N.kind net c with K.Gate _ -> true | _ -> false in
  let r = Engine.run_sample e ~cell_filter:keep_comb rng (mk_sample ~t:4 dff) in
  Alcotest.(check int) "no direct hits" 0 (Array.length r.Engine.direct)

let test_engine_gate_flips_only () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let rng = Rng.create 6 in
  let dff = (N.register_group net "mode").(0) in
  let latched, direct = Engine.gate_flips_only e rng (mk_sample ~t:2 dff) in
  Alcotest.(check (array int)) "direct is the struck dff" [| dff |] direct;
  ignore latched

let test_engine_exec_benchmark () =
  (* The framework on the third policy: widening the exec region (limit1
     high bits) or escalating privilege (mode) defeats the fetch check. *)
  let e = Experiments.engine_for (Lazy.force ctx) Programs.illegal_exec in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let vuln = Engine.static_vulnerable e in
  Alcotest.(check bool) "mode vulnerable" true (vuln (N.register_group net "mode").(0));
  Alcotest.(check bool) "limit1 high bit vulnerable" true
    (vuln (N.register_group net "mpu_limit1").(15));
  Alcotest.(check bool) "limit0 not decisive here" false
    (vuln (N.register_group net "mpu_limit0").(9));
  let rng = Rng.create 3 in
  let r = Engine.run_sample e rng (mk_sample ~t:6 (N.register_group net "mpu_limit1").(15)) in
  Alcotest.(check bool) "exec-region widening succeeds" true r.Engine.success

let test_engine_multi_cycle_impact () =
  let e = engine () in
  let prep = prepare Sampler.Random in
  (* Sustained strikes can only add register errors, and SSF grows with the
     impact window (statistically; check on a fixed seed batch). *)
  let count k =
    let rng = Rng.create 41 in
    let succ = ref 0 in
    for _ = 1 to 400 do
      let s = Sampler.draw prep rng in
      let r = Engine.run_sample e ~impact_cycles:k rng s in
      if r.Engine.success then incr succ
    done;
    !succ
  in
  let one = count 1 and three = count 3 in
  Alcotest.(check bool)
    (Printf.sprintf "3-cycle impact (%d) >= 1-cycle (%d)" three one)
    true (three >= one);
  Alcotest.check_raises "bad impact" (Invalid_argument "Engine.run_sample: impact_cycles must be >= 1")
    (fun () ->
      let rng = Rng.create 1 in
      ignore (Engine.run_sample e ~impact_cycles:0 rng (Sampler.draw prep rng)))

(* ------------------------------------------------------------------ *)
(* The injection cycle's incremental paths against full recomputation *)

(* Reference attribution by replay: re-run the injection cycle from the
   golden state at [te], then leave one flipped bit out per RTL trial.
   Also checks the result's error record against the replayed state:
   [flips] and [dmem_diffs] are exactly where it differs from the golden
   run at [te + 1]. *)
let replayed_causal e (r : Engine.run_result) =
  let net = (Engine.circuit e).Circuit.net in
  let sys = Golden.restore_at (Engine.golden e) r.Engine.te in
  Array.iter (Engine.apply_flip sys net) r.Engine.direct;
  let _, gate_hits, _ =
    Engine.partition_disc e r.Engine.sample.Sampler.center r.Engine.sample.Sampler.radius
  in
  ignore (Engine.gate_level_cycle e sys r.Engine.sample gate_hits);
  Array.iter (Engine.apply_flip sys net) r.Engine.latched;
  let golden = Golden.restore_at (Engine.golden e) (r.Engine.te + 1) in
  let dmem_diffs =
    List.filter_map
      (fun a ->
        let v = (System.dmem sys).(a) in
        if v <> (System.dmem golden).(a) then Some (a, v) else None)
      (List.init (Array.length (System.dmem sys)) Fun.id)
  in
  let record_ok =
    Engine.state_bit_diffs (System.state sys) (System.state golden) = r.Engine.flips
    && dmem_diffs = r.Engine.dmem_diffs
  in
  let cp = System.checkpoint sys in
  let program = Engine.program e in
  let budget = program.Programs.max_cycles + 100 in
  let fails_without (group, bit) =
    let trial = System.create program in
    System.restore trial cp;
    let st = System.state trial in
    Arch.set_group st group (Arch.get_group st group lxor (1 lsl bit));
    ignore (System.run trial ~max_cycles:(max 1 (budget - System.cycle trial)));
    not (Engine.observables_differ e trial)
  in
  let causal =
    match List.filter fails_without r.Engine.flips with [] -> r.Engine.flips | c -> c
  in
  (record_ok, causal)

let test_engine_causal_matches_replay () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let rng = Rng.create 21 in
  let successes = ref 0 and draws = ref 0 in
  while !successes < 200 && !draws < 5000 do
    incr draws;
    let r = Engine.run_sample e rng (Sampler.draw prep rng) in
    if r.Engine.success && r.Engine.flips <> [] then begin
      incr successes;
      let record_ok, causal = replayed_causal e r in
      if not record_ok then Alcotest.failf "draw %d: flips/dmem_diffs differ from the replay" !draws;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "draw %d: causal flips" !draws)
        causal (Engine.causal_flips e r)
    end
  done;
  Alcotest.(check bool) (Printf.sprintf "%d successes >= 200" !successes) true (!successes >= 200)

(* A sample that raises part-way through the gate-level cycle (a bad
   pulse width) or the RTL resume (an exhausted watchdog) leaves the
   engine's scratch state behind; the next sample must not see it. *)
let test_engine_exception_safety () =
  let precharac = Experiments.precharac (Lazy.force ctx) in
  let e = Engine.create ~precharac Programs.illegal_write in
  let prep = prepare Sampler.default_mixed in
  let rng = Rng.create 5 in
  let raised = ref 0 in
  for i = 1 to 30 do
    let s = Sampler.draw prep rng in
    let poisoned, cycle_budget =
      if i mod 2 = 0 then ({ s with Sampler.width = -1. }, None) else (s, Some 0)
    in
    (try ignore (Engine.run_sample e ?cycle_budget (Rng.create i) poisoned)
     with Invalid_argument _ | System.Cycle_budget_exhausted _ -> incr raised);
    let next = Sampler.draw prep rng in
    let a = Engine.run_sample e (Rng.create 0) next in
    let b = Engine.run_sample (Engine.create ~precharac Programs.illegal_write) (Rng.create 0) next in
    if a <> b then Alcotest.failf "sample %d after a raising sample differs from a fresh engine" i;
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "sample %d: causal" i) (Engine.causal_flips e a) (Engine.causal_flips e b)
  done;
  Alcotest.(check bool) (Printf.sprintf "%d samples raised" !raised) true (!raised >= 10)

let resettle_props =
  let harness =
    lazy
      (let e = engine () in
       let circuit = Engine.circuit e in
       (e, Fmc_cpu.Netsys.create circuit Programs.illegal_write,
        Fmc_cpu.Netsys.create circuit Programs.illegal_write))
  in
  [
    QCheck.Test.make ~name:"resettle from the golden image = load_arch + settle" ~count:80
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let module Netsys = Fmc_cpu.Netsys in
        let module Sim = Fmc_gatesim.Cycle_sim in
        let e, full, incr = Lazy.force harness in
        let rng = Rng.create seed in
        let g = Engine.golden e in
        let net = (Engine.circuit e).Circuit.net in
        let c = Rng.int_in rng 1 (Golden.halt_cycle g) in
        (* A random state near golden cycle [c]: flipped register bits, pc
           bits and memory words, sometimes the word the cycle reads. *)
        let mutate () =
          let sys = Golden.restore_at g c in
          let st = System.state sys and dmem = System.dmem sys in
          for _ = 1 to Rng.int rng 4 do
            Engine.apply_flip sys net (Rng.choose rng (N.dffs net))
          done;
          if Rng.bool rng then
            Arch.set_group st "pc" (Arch.get_group st "pc" lxor (1 lsl Rng.int rng 4));
          for _ = 1 to Rng.int rng 3 do
            dmem.(Rng.int rng (Array.length dmem)) <- Rng.int rng 0x10000
          done;
          let settle () =
            Array.blit dmem 0 (Netsys.dmem full) 0 (Array.length dmem);
            Netsys.load_arch full st;
            Netsys.settle full
          in
          settle ();
          if Rng.bool rng then begin
            let addr = Sim.read_bus (Netsys.sim full) (Engine.circuit e).Circuit.dmem_addr in
            dmem.(addr land (Array.length dmem - 1)) <- Rng.int rng 0x10000;
            settle ()
          end;
          (st, dmem)
        in
        (* Resettle from the golden image, sometimes via a detour through
           another random state: any settled start must do. *)
        Sim.load_values (Netsys.sim incr) (Engine.golden_settled e c);
        if Rng.bool rng then begin
          let st, dmem = mutate () in
          Netsys.resettle incr st ~dmem
        end;
        let st, dmem = mutate () in
        Netsys.resettle incr st ~dmem;
        Sim.save_values (Netsys.sim incr) = Sim.save_values (Netsys.sim full));
  ]

let test_engine_glitch () =
  let e = engine () in
  let tt = Golden.target_cycle (Engine.golden e) in
  let critical = Engine.glitch_critical_path e in
  (* A period above the critical path never violates anything. *)
  let r = Engine.run_glitch e ~te:(tt - 3) ~period:(critical +. 100.) in
  Alcotest.(check (list (pair string int))) "no stale bits" [] r.Engine.g_stale;
  Alcotest.(check bool) "harmless" false r.Engine.g_success;
  (* A deep glitch catches the long paths (stale bits appear); determinism. *)
  let a = Engine.run_glitch e ~te:(tt - 3) ~period:(0.6 *. critical) in
  let b = Engine.run_glitch e ~te:(tt - 3) ~period:(0.6 *. critical) in
  Alcotest.(check bool) "deterministic" true (a = b);
  (* te before reset: no-op. *)
  let r = Engine.run_glitch e ~te:0 ~period:(0.5 *. critical) in
  Alcotest.(check bool) "pre-reset no-op" false r.Engine.g_success

let engine_props =
  let prep = lazy (prepare Sampler.Random) in
  [
    QCheck.Test.make ~name:"masked runs never succeed; te = Tt - t" ~count:60
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let e = engine () in
        let rng = Rng.create seed in
        let s = Sampler.draw (Lazy.force prep) rng in
        let r = Engine.run_sample e rng s in
        let tt = Golden.target_cycle (Engine.golden e) in
        r.Engine.te = tt - s.Sampler.t
        && (match r.Engine.outcome with
           | Engine.Masked -> (not r.Engine.success) && r.Engine.flips = []
           | Engine.Analytical b | Engine.Resumed b -> b = r.Engine.success));
    QCheck.Test.make ~name:"success implies an architectural or memory effect" ~count:60
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let e = engine () in
        let rng = Rng.create seed in
        let s = Sampler.draw (Lazy.force prep) rng in
        let r = Engine.run_sample e rng s in
        (* A successful attack cannot come out of a masked cycle. *)
        (not r.Engine.success) || r.Engine.outcome <> Engine.Masked);
    QCheck.Test.make ~name:"causal flips are a subset of flips" ~count:40
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let e = engine () in
        let rng = Rng.create seed in
        let s = Sampler.draw (Lazy.force prep) rng in
        let r = Engine.run_sample e rng s in
        let causal = Engine.causal_flips e r in
        List.for_all (fun f -> List.mem f r.Engine.flips) causal
        && ((not r.Engine.success) || causal <> []));
  ]

(* ------------------------------------------------------------------ *)
(* Ssf *)

let test_ssf_deterministic () =
  let e = engine () in
  let prep = prepare Sampler.Random in
  let a = Ssf.estimate e prep ~samples:300 ~seed:5 in
  let b = Ssf.estimate e prep ~samples:300 ~seed:5 in
  Alcotest.(check (float 1e-12)) "same ssf" a.Ssf.ssf b.Ssf.ssf;
  Alcotest.(check (float 1e-12)) "same variance" a.Ssf.variance b.Ssf.variance;
  Alcotest.(check int) "same successes" a.Ssf.successes b.Ssf.successes

let test_ssf_bookkeeping () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let r = Ssf.estimate e prep ~samples:400 ~seed:5 in
  Alcotest.(check int) "outcomes sum to n" 400
    (r.Ssf.outcomes.Ssf.masked + r.Ssf.outcomes.Ssf.mem_only + r.Ssf.outcomes.Ssf.resumed);
  Alcotest.(check int) "success split" r.Ssf.successes (r.Ssf.success_by_direct + r.Ssf.success_by_comb);
  Alcotest.(check bool) "ssf in [0,1]" true (r.Ssf.ssf >= 0. && r.Ssf.ssf <= 1.);
  Alcotest.(check bool) "trace ends at n" true
    (match List.rev r.Ssf.trace with (n, _) :: _ -> n = 400 | [] -> false);
  (* Contributions are positive and sorted descending. *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "contributions sorted" true (sorted r.Ssf.contributions);
  List.iter (fun (_, w) -> Alcotest.(check bool) "positive" true (w > 0.)) r.Ssf.contributions

let test_ssf_estimates_agree_across_strategies () =
  (* Unbiasedness smoke test: all strategies estimate the same quantity. *)
  let e = engine () in
  let estimates =
    List.map
      (fun strat ->
        let prep = prepare strat in
        (Ssf.estimate e prep ~samples:3000 ~seed:17).Ssf.ssf)
      [ Sampler.Random; Sampler.default_mixed ]
  in
  match estimates with
  | [ a; b ] ->
      Alcotest.(check bool)
        (Printf.sprintf "random %.4f vs mixed %.4f within 3 sigma" a b)
        true
        (abs_float (a -. b) < 0.012)
  | _ -> assert false

let test_ssf_effective_sample_size () =
  let e = engine () in
  (* Plain Monte Carlo: ESS equals n exactly (all weights are 1). *)
  let r = Ssf.estimate ~causal:false e (prepare Sampler.Random) ~samples:500 ~seed:5 in
  Alcotest.(check (float 1e-6)) "random ESS = n" 500. r.Ssf.ess;
  (* Weighted strategies: 0 < ESS <= n. *)
  let r = Ssf.estimate ~causal:false e (prepare Sampler.default_mixed) ~samples:500 ~seed:5 in
  Alcotest.(check bool) "mixed ESS in (0, n]" true (r.Ssf.ess > 0. && r.Ssf.ess <= 500.)

let test_ssf_confidence_interval () =
  let e = engine () in
  let prep = prepare Sampler.Random in
  let r = Ssf.estimate e prep ~samples:2000 ~seed:5 in
  let lo, hi = Ssf.confidence_interval r ~z:1.96 in
  Alcotest.(check bool) "estimate inside" true (lo <= r.Ssf.ssf && r.Ssf.ssf <= hi);
  Alcotest.(check bool) "clamped" true (lo >= 0. && hi <= 1.);
  let lo99, hi99 = Ssf.confidence_interval r ~z:2.58 in
  Alcotest.(check bool) "wider at higher z" true (hi99 -. lo99 >= hi -. lo)

let test_ssf_estimate_until () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let r = Ssf.estimate_until ~causal:false e prep ~half_width:0.01 ~z:1.96 ~seed:5 in
  let lo, hi = Ssf.confidence_interval r ~z:1.96 in
  Alcotest.(check bool) "target met" true ((hi -. lo) /. 2. <= 0.01 || r.Ssf.n >= 200_000);
  Alcotest.(check bool) "took some samples" true (r.Ssf.n >= 500);
  Alcotest.check_raises "bad half width"
    (Invalid_argument "Ssf.estimate_until: non-positive half_width") (fun () ->
      ignore (Ssf.estimate_until e prep ~half_width:0. ~z:1.96 ~seed:1))

(* The stopping rule is one pass over the seed's stream, not a re-run
   per doubling: the report equals estimate ~samples:n byte for byte
   (also when the stop point is off the trace grid, as every batch-70
   schedule point is), and the sample counter sees each sample once. *)
let test_ssf_estimate_until_one_pass () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  List.iter
    (fun batch ->
      let what = match batch with None -> "default batch" | Some b -> Printf.sprintf "batch %d" b in
      let reg = Fmc_obs.Metrics.create () in
      let obs = Fmc_obs.Obs.create ~metrics:reg () in
      let r = Ssf.estimate_until ~obs ?batch e prep ~half_width:0.006 ~z:1.96 ~seed:5 in
      Alcotest.(check bool) (what ^ ": stopped past the first check") true
        (r.Ssf.n > Option.value batch ~default:500);
      if batch = Some 70 then
        Alcotest.(check bool) (what ^ ": stop point off the trace grid") true (r.Ssf.n mod 50 <> 0);
      let direct = Ssf.estimate e prep ~samples:r.Ssf.n ~seed:5 in
      Alcotest.(check string) (what ^ ": byte-identical to estimate ~samples:n")
        (Export.report_json direct) (Export.report_json r);
      match List.assoc_opt "fmc_samples_total" (Fmc_obs.Metrics.snapshot reg) with
      | Some (_, Fmc_obs.Metrics.Counter v) ->
          Alcotest.(check (float 0.)) (what ^ ": each sample counted once") (float_of_int r.Ssf.n) v
      | _ -> Alcotest.fail "fmc_samples_total missing")
    [ None; Some 70 ]

let test_ssf_parallel () =
  (* The sample loop's bytes do not depend on how many domains run it:
     three domains give the one-domain report byte for byte, and count
     the same samples and golden restores. Each run gets a fresh engine,
     so both start with an empty golden-cycle cache. *)
  let prep = prepare Sampler.default_mixed in
  let run domains =
    let e = Engine.create ~precharac:(Experiments.precharac (Lazy.force ctx)) Programs.illegal_write in
    let reg = Fmc_obs.Metrics.create () in
    let obs = Fmc_obs.Obs.create ~metrics:reg () in
    let r = Ssf.with_domains domains (fun () -> Ssf.estimate ~obs e prep ~samples:1200 ~seed:5) in
    let counter name =
      match List.assoc_opt name (Fmc_obs.Metrics.snapshot reg) with
      | Some (_, Fmc_obs.Metrics.Counter v) -> v
      | _ -> Alcotest.failf "%s missing" name
    in
    (Export.report_json r, counter "fmc_samples_total", counter "fmc_restores_total")
  in
  let json1, samples1, restores1 = run 1 in
  let json3, samples3, restores3 = run 3 in
  Alcotest.(check string) "report bytes" json1 json3;
  Alcotest.(check (float 0.)) "fmc_samples_total" samples1 samples3;
  Alcotest.(check (float 0.)) "each sample counted once" 1200. samples3;
  Alcotest.(check (float 0.)) "fmc_restores_total" restores1 restores3

let test_ssf_contribution_coverage () =
  let e = engine () in
  let prep = prepare Sampler.default_mixed in
  let r = Ssf.estimate e prep ~samples:800 ~seed:5 in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. r.Ssf.contributions in
  let prefix = Ssf.contribution_coverage r ~fraction:0.9 in
  let covered = List.fold_left (fun acc (_, w) -> acc +. w) 0. prefix in
  Alcotest.(check bool) "prefix covers 90%" true (covered >= (0.9 *. total) -. 1e-9);
  Alcotest.(check bool) "prefix minimal-ish" true (List.length prefix <= List.length r.Ssf.contributions);
  let all = Ssf.contribution_coverage r ~fraction:1.0 in
  Alcotest.(check int) "full coverage takes all" (List.length r.Ssf.contributions) (List.length all)

let test_export_csv_and_json () =
  let e = engine () in
  let prep = prepare Sampler.Random in
  let r = Ssf.estimate e prep ~samples:300 ~seed:5 in
  let trace = Export.trace_csv r in
  Alcotest.(check bool) "trace header" true (String.length trace > 12 && String.sub trace 0 11 = "samples,ssf");
  Alcotest.(check int) "one row per trace point plus header"
    (List.length r.Ssf.trace + 1)
    (List.length (String.split_on_char '
' (String.trim trace)));
  let contrib = Export.contributions_csv r in
  Alcotest.(check bool) "contrib header" true (String.sub contrib 0 19 = "register,bit,weight");
  let json = Export.report_json r in
  Alcotest.(check bool) "json braces" true (json.[0] = '{' && json.[String.length json - 1] = '}');
  Alcotest.(check bool) "json has strategy" true
    (let needle = "\"strategy\":\"random\"" in
     let rec go i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || go (i + 1))
     in
     go 0)

(* ------------------------------------------------------------------ *)
(* Harden *)

let test_harden_critical_registers () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let prep = prepare Sampler.default_mixed in
  let r = Ssf.estimate e prep ~samples:1500 ~seed:5 in
  let crit = Harden.critical_registers net r ~coverage:0.95 in
  Alcotest.(check bool) "non-empty" true (Array.length crit > 0);
  Alcotest.(check bool) "small subset" true (Array.length crit < Array.length (N.dffs net) / 4);
  (* Each critical register is a real flip-flop node. *)
  Array.iter
    (fun d ->
      match N.kind net d with
      | K.Dff _ -> ()
      | _ -> Alcotest.fail "critical register is not a flip-flop")
    crit

let test_harden_evaluate () =
  let e = engine () in
  let net = (Experiments.circuit (Lazy.force ctx)).Circuit.net in
  let prep = prepare Sampler.default_mixed in
  let pilot = Ssf.estimate e prep ~samples:1500 ~seed:5 in
  let plan = Harden.default_plan net pilot ~coverage:0.9 in
  let ev = Harden.evaluate e prep ~plan ~samples:1500 ~seed:6 in
  Alcotest.(check bool) "hardening reduces ssf" true
    (ev.Harden.hardened.Ssf.ssf <= ev.Harden.baseline.Ssf.ssf +. 0.005);
  Alcotest.(check bool) "positive overhead" true (ev.Harden.area_overhead > 0.);
  Alcotest.(check bool) "overhead small" true (ev.Harden.area_overhead < 0.2);
  Alcotest.(check bool) "fraction consistent" true
    (abs_float
       (ev.Harden.register_fraction
       -. (float_of_int (Array.length plan.Harden.registers) /. float_of_int (Array.length (N.dffs net))))
    < 1e-9)

(* ------------------------------------------------------------------ *)
(* Experiments + Report *)

let test_experiments_fig4 () =
  let f = Experiments.fig4 (Lazy.force ctx) in
  let total h = Array.fold_left (fun acc (_, p) -> acc +. p) 0. h in
  Alcotest.(check (float 1e-6)) "lifetime hist normalized" 1. (total f.Experiments.lifetime_hist);
  Alcotest.(check (float 1e-6)) "contamination hist normalized" 1.
    (total f.Experiments.contamination_hist);
  Alcotest.(check bool) "memory fraction in (0,1)" true
    (f.Experiments.memory_fraction > 0. && f.Experiments.memory_fraction < 1.)

let test_experiments_fig8 () =
  let f = Experiments.fig8 (Lazy.force ctx) in
  let gt = List.fold_left (fun acc (_, p) -> acc +. p) 0. f.Experiments.g_t in
  Alcotest.(check (float 1e-6)) "g_T normalized" 1. gt;
  List.iter
    (fun (_, total, cone, comp) ->
      Alcotest.(check bool) "cone <= total" true (cone <= total);
      Alcotest.(check bool) "comp <= cone" true (comp <= cone))
    f.Experiments.per_depth

let test_experiments_fig9_small () =
  let f = Experiments.fig9 ~samples:400 ~seed:3 (Lazy.force ctx) in
  Alcotest.(check (list string)) "strategies" [ "random"; "fanin-cone"; "mixed" ]
    (List.map (fun (r : Experiments.fig9_row) -> r.Experiments.strategy) f.Experiments.rows);
  List.iter
    (fun (r : Experiments.fig9_row) ->
      Alcotest.(check bool) "ssf sane" true (r.Experiments.ssf >= 0. && r.Experiments.ssf <= 1.))
    f.Experiments.rows;
  Alcotest.(check int) "speedups for each row" 3 (List.length f.Experiments.speedup_vs_random)

let test_report_printers_non_empty () =
  let c = Lazy.force ctx in
  let render pp v = Format.asprintf "%a" pp v in
  Alcotest.(check bool) "fig4" true (String.length (render Report.fig4 (Experiments.fig4 c)) > 100);
  Alcotest.(check bool) "fig8" true (String.length (render Report.fig8 (Experiments.fig8 c)) > 100);
  let f9 = Experiments.fig9 ~samples:300 ~seed:3 c in
  Alcotest.(check bool) "fig9" true (String.length (render Report.fig9 f9) > 100);
  Alcotest.(check bool) "bar clamps" true (String.length (Report.bar 2.0) = 40);
  Alcotest.(check int) "bar zero" 0 (String.length (Report.bar (-1.)))

let () =
  Alcotest.run "core"
    [
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_dist_uniform;
          Alcotest.test_case "delta and discrete" `Quick test_dist_delta_and_discrete;
          Alcotest.test_case "float" `Quick test_dist_float;
        ] );
      ( "attack",
        [
          Alcotest.test_case "block_around" `Slow test_attack_block_around;
          Alcotest.test_case "pmf_spatial" `Quick test_attack_pmf_spatial;
          Alcotest.test_case "validate" `Slow test_attack_validate;
        ] );
      ( "golden",
        [
          Alcotest.test_case "target cycle" `Quick test_golden_target_cycle;
          Alcotest.test_case "restore_at" `Quick test_golden_restore_at;
          Alcotest.test_case "observables" `Quick test_golden_observables;
          Alcotest.test_case "broken benchmark rejected" `Quick test_golden_broken_benchmark;
        ] );
      ( "precharac",
        [
          Alcotest.test_case "cone levels" `Slow test_precharac_levels;
          Alcotest.test_case "correlation bounds" `Slow test_precharac_correlation_bounds;
          Alcotest.test_case "memory classification" `Slow test_precharac_memory_classification;
          Alcotest.test_case "gate lifetimes" `Slow test_precharac_gate_lifetime;
          Alcotest.test_case "lifetime statistics" `Slow test_lifetime_statistics_sane;
          QCheck_alcotest.to_alcotest correlation_kernel_oracle;
          Alcotest.test_case "lifetime = string-keyed reference" `Slow
            test_lifetime_matches_reference;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "random draws" `Slow test_sampler_random_draws;
          Alcotest.test_case "temporal pmf normalized" `Slow test_sampler_temporal_pmf_normalized;
          Alcotest.test_case "weights positive" `Slow test_sampler_weights_positive;
          Alcotest.test_case "strata masses" `Slow test_sampler_strata;
          Alcotest.test_case "sample-space reduction" `Slow test_sampler_sample_space_reduction;
          Alcotest.test_case "mixed stratum tags" `Slow test_sampler_mixed_stratum_tags;
        ] );
      ( "analytical",
        [
          Alcotest.test_case "config evaluation" `Slow test_analytical;
          Alcotest.test_case "static vulnerability scan" `Slow test_static_vulnerable;
        ] );
      ( "engine",
        [
          Alcotest.test_case "vulnerable flip succeeds" `Slow test_engine_direct_vulnerable_flip_succeeds;
          Alcotest.test_case "benign flip fails" `Slow test_engine_benign_flip_fails;
          Alcotest.test_case "late shot fails" `Slow test_engine_past_target_fails;
          Alcotest.test_case "pre-reset masked" `Slow test_engine_te_before_reset_masked;
          Alcotest.test_case "deterministic" `Slow test_engine_deterministic;
          Alcotest.test_case "hardening blocks flips" `Slow test_engine_hardening_blocks_flips;
          Alcotest.test_case "cell filter" `Slow test_engine_cell_filter;
          Alcotest.test_case "gate_flips_only" `Slow test_engine_gate_flips_only;
          Alcotest.test_case "clock glitch" `Slow test_engine_glitch;
          Alcotest.test_case "illegal-exec policy" `Slow test_engine_exec_benchmark;
          Alcotest.test_case "multi-cycle impact" `Slow test_engine_multi_cycle_impact;
          Alcotest.test_case "causal attribution matches replay" `Slow
            test_engine_causal_matches_replay;
          Alcotest.test_case "exception safety" `Slow test_engine_exception_safety;
        ] );
      ( "ssf",
        [
          Alcotest.test_case "deterministic" `Slow test_ssf_deterministic;
          Alcotest.test_case "bookkeeping" `Slow test_ssf_bookkeeping;
          Alcotest.test_case "strategies agree" `Slow test_ssf_estimates_agree_across_strategies;
          Alcotest.test_case "confidence interval" `Slow test_ssf_confidence_interval;
          Alcotest.test_case "effective sample size" `Slow test_ssf_effective_sample_size;
          Alcotest.test_case "estimate until convergence" `Slow test_ssf_estimate_until;
          Alcotest.test_case "estimate until is one pass" `Slow test_ssf_estimate_until_one_pass;
          Alcotest.test_case "parallel estimation" `Slow test_ssf_parallel;
          Alcotest.test_case "contribution coverage" `Slow test_ssf_contribution_coverage;
        ] );
      ("engine-props", List.map QCheck_alcotest.to_alcotest engine_props);
      ("resettle", List.map QCheck_alcotest.to_alcotest resettle_props);
      ("export", [ Alcotest.test_case "csv and json" `Slow test_export_csv_and_json ]);
      ( "harden",
        [
          Alcotest.test_case "critical registers" `Slow test_harden_critical_registers;
          Alcotest.test_case "evaluate" `Slow test_harden_evaluate;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig4 data" `Slow test_experiments_fig4;
          Alcotest.test_case "fig8 data" `Slow test_experiments_fig8;
          Alcotest.test_case "fig9 small" `Slow test_experiments_fig9_small;
          Alcotest.test_case "report printers" `Slow test_report_printers_non_empty;
        ] );
    ]
