(* Tests for the Fmc_sva masking-certificate library: three-valued
   abstract interpretation soundness against the concrete simulator
   (property tests over random netlists), sequential constant
   propagation against multi-cycle replay, cycle-aware observability
   distances on a hand-built register chain, the pruner's self-check
   (every claimed-masked point confirmed by a full engine run), and the
   headline acceptance property — a pruned Monte Carlo run produces a
   report byte-identical to the unpruned reference on both bundled
   benchmarks. *)

module K = Fmc_netlist.Kind
module B = Fmc_netlist.Builder
module N = Fmc_netlist.Netlist
module Rng = Fmc_prelude.Rng
module Cycle_sim = Fmc_gatesim.Cycle_sim
module Absint = Fmc_sva.Absint
module Seqconst = Fmc_sva.Seqconst
module Window = Fmc_sva.Window
module Cert = Fmc_sva.Cert
module Pruner = Fmc_sva.Pruner
module Programs = Fmc_isa.Programs
open Fmc

(* ------------------------------------------------------------------ *)
(* Random netlists (same shape as the generator in test_netlist.ml) *)

let random_netlist rng ~num_inputs ~num_regs ~num_gates =
  let b = B.create () in
  let nodes = ref [] in
  for i = 0 to num_inputs - 1 do
    nodes := B.add_input b ~name:(Printf.sprintf "i%d" i) :: !nodes
  done;
  let regs =
    Array.init num_regs (fun i -> B.add_dff b ~group:(Printf.sprintf "r%d" i) ~bit:0 ~init:false)
  in
  Array.iter (fun r -> nodes := r :: !nodes) regs;
  for _ = 1 to num_gates do
    let pool = Array.of_list !nodes in
    let pick () = Rng.choose rng pool in
    let kind = Rng.choose rng [| K.And; K.Or; K.Xor; K.Nand; K.Nor; K.Not; K.Mux |] in
    let fanins =
      match K.gate_arity kind with
      | Some n -> Array.init n (fun _ -> pick ())
      | None -> Array.init (2 + Rng.int rng 2) (fun _ -> pick ())
    in
    nodes := B.add_gate b kind fanins :: !nodes
  done;
  let pool = Array.of_list !nodes in
  Array.iter (fun r -> B.connect_dff b r ~d:(Rng.choose rng pool)) regs;
  B.set_output b ~name:"o" pool.(0);
  N.of_builder b

(* ------------------------------------------------------------------ *)
(* Property: the abstract comb pass never contradicts the concrete
   simulator when its seed agrees with the concrete state. *)

let absint_props =
  [
    QCheck.Test.make ~name:"comb_pass never refutes the concrete evaluation" ~count:100
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Rng.create seed in
        let net = random_netlist rng ~num_inputs:4 ~num_regs:4 ~num_gates:40 in
        let sim = Cycle_sim.create net in
        let values = Array.make (N.num_nodes net) None in
        (* Concrete state is random; each seed entry is either the exact
           concrete value or unknown — soundness must hold for any such
           weakening. *)
        Array.iter
          (fun i ->
            let v = Rng.bool rng in
            Cycle_sim.set_input sim i v;
            values.(i) <- (if Rng.bool rng then Some v else None))
          (N.inputs net);
        Array.iter
          (fun f ->
            let v = Rng.bool rng in
            if v then Cycle_sim.flip sim f;
            values.(f) <- (if Rng.bool rng then Some v else None))
          (N.dffs net);
        Cycle_sim.eval_comb sim;
        Absint.comb_pass net values;
        Array.for_all
          (fun g -> not (Absint.refutes values.(g) (Cycle_sim.value sim g)))
          (N.gates net));
    QCheck.Test.make ~name:"fully-definite seed reproduces the simulator exactly" ~count:50
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Rng.create seed in
        let net = random_netlist rng ~num_inputs:3 ~num_regs:3 ~num_gates:30 in
        let sim = Cycle_sim.create net in
        let values = Array.make (N.num_nodes net) None in
        Array.iter
          (fun i ->
            let v = Rng.bool rng in
            Cycle_sim.set_input sim i v;
            values.(i) <- Some v)
          (N.inputs net);
        Array.iter (fun f -> values.(f) <- Some false) (N.dffs net);
        Cycle_sim.eval_comb sim;
        Absint.comb_pass net values;
        (* With no unknowns in the seed, the abstract pass has no excuse
           to lose information: every gate must be definite and equal. *)
        Array.for_all (fun g -> values.(g) = Some (Cycle_sim.value sim g)) (N.gates net));
    QCheck.Test.make ~name:"sequential constants hold on every concrete cycle" ~count:50
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Rng.create seed in
        let net = random_netlist rng ~num_inputs:4 ~num_regs:5 ~num_gates:40 in
        let r = Seqconst.analyze net in
        let sim = Cycle_sim.create net in
        let ok = ref true in
        let check n =
          match Seqconst.constant r n with
          | Some v -> if Cycle_sim.value sim n <> v then ok := false
          | None -> ()
        in
        for _cycle = 1 to 8 do
          Array.iter (fun i -> Cycle_sim.set_input sim i (Rng.bool rng)) (N.inputs net);
          Cycle_sim.eval_comb sim;
          Array.iter check (N.dffs net);
          Array.iter check (N.gates net);
          Cycle_sim.latch sim
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Observability distances on a hand-built chain *)

(* c -> b -> a -> root gate; iso is connected but feeds nothing the root
   can see. *)
let chain_net () =
  let b = B.create () in
  let i = B.add_input b ~name:"i" in
  let a = B.add_dff b ~group:"a" ~bit:0 ~init:false in
  let bb = B.add_dff b ~group:"b" ~bit:0 ~init:false in
  let c = B.add_dff b ~group:"c" ~bit:0 ~init:false in
  let iso = B.add_dff b ~group:"iso" ~bit:0 ~init:false in
  B.connect_dff b c ~d:i;
  B.connect_dff b bb ~d:c;
  B.connect_dff b a ~d:bb;
  B.connect_dff b iso ~d:i;
  let root = B.add_gate b K.Buf [| a |] in
  B.set_output b ~name:"o" root;
  (N.of_builder b, root, a, bb, c, iso)

let test_window_distances () =
  let net, root, a, b, c, iso = chain_net () in
  let w = Window.distances net ~roots:[ root ] in
  Alcotest.(check (option int)) "a feeds the root cone" (Some 0) (Window.distance w a);
  Alcotest.(check (option int)) "b is one latch away" (Some 1) (Window.distance w b);
  Alcotest.(check (option int)) "c is two latches away" (Some 2) (Window.distance w c);
  Alcotest.(check (option int)) "iso never reaches the root" None (Window.distance w iso);
  Alcotest.(check (option int)) "group minimum" (Some 1) (Window.group_distance w [| b; c |]);
  Alcotest.(check (option int)) "deadline bound" (Some 8)
    (Window.observable_until w ~halt:10 [| c |]);
  Alcotest.(check (option int)) "unreachable group has no deadline" None
    (Window.observable_until w ~halt:10 [| iso |])

(* ------------------------------------------------------------------ *)
(* Benchmarks: certificates, self-check, byte-identical pruned reports *)

let ctx = lazy (Experiments.context ())

let prepare e strategy =
  Sampler.prepare ~static_vuln:(Engine.static_vulnerable e) strategy
    (Experiments.default_attack (Lazy.force ctx))
    (Experiments.precharac (Lazy.force ctx))
    ~placement:(Engine.placement e)

let test_certificate_artifact () =
  let e = Experiments.engine_for (Lazy.force ctx) Programs.illegal_write in
  let cert = Cert.build e in
  Alcotest.(check bool) "benchmark named" true (String.length cert.Cert.benchmark > 0);
  Alcotest.(check bool) "registers counted" true (cert.Cert.dff_count > 0);
  Alcotest.(check bool) "per-group certificates" true (cert.Cert.groups <> []);
  Alcotest.(check bool) "workload replay ran" true (cert.Cert.workload_cycles > 0);
  Alcotest.(check bool) "constant inputs bounded" true
    (cert.Cert.constant_input_bits <= cert.Cert.input_bits);
  let json = Cert.to_json cert in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema tagged" true (contains "faultmc-sva-v1")

(* Every other claimed point is a disc round a gate, so the claims
   reach the latch-window rule as well as single flip-flops. *)
let test_pruner_self_check () =
  let e = Experiments.engine_for (Lazy.force ctx) Programs.illegal_write in
  let p = Pruner.create e in
  let claimed, violations = Pruner.self_check ~points:30 p in
  Alcotest.(check int) "30 points claimed masked, 15 of them gate-centred discs" 30 claimed;
  Alcotest.(check int) "every claim confirmed by the engine" 0 (List.length violations)

(* A grid over the default attack's block at radius 1.5: every point the
   pruner certifies must be Masked under full simulation. The certified
   count is pinned; the three-valued walk alone certifies about a tenth
   as many. *)
let check_certified_grid prog ~expect =
  let c = Lazy.force ctx in
  let e = Experiments.engine_for c prog in
  let p = Pruner.create e in
  let rng = Rng.create 0 in
  let certified = ref 0 and unmasked = ref 0 in
  for k = 0 to 9 do
    Array.iteri
      (fun i center ->
        if i mod 7 = 0 then
          List.iter
            (fun time_frac ->
              List.iter
                (fun width ->
                  let sample =
                    {
                      Sampler.t = 5 * k;
                      center;
                      radius = 1.5;
                      width;
                      time_frac;
                      weight = 1.;
                      stratum = Sampler.All;
                    }
                  in
                  if Pruner.covered p sample then begin
                    incr certified;
                    if (Engine.run_sample e rng sample).Engine.outcome <> Engine.Masked then
                      incr unmasked
                  end)
                [ 100.; 225.; 350. ])
            [ 0.125; 0.375; 0.625; 0.875 ])
      (Experiments.default_block c)
  done;
  Alcotest.(check int) "every certified point masked" 0 !unmasked;
  Alcotest.(check int) "certified points" expect !certified

let test_certified_grid_write () = check_certified_grid Programs.illegal_write ~expect:14_634
let test_certified_grid_read () = check_certified_grid Programs.illegal_read ~expect:14_533

let check_pruned_report_identical prog strategy =
  let e = Experiments.engine_for (Lazy.force ctx) prog in
  let prep = prepare e strategy in
  let plain = Ssf.estimate e prep ~samples:500 ~seed:11 in
  let e2 = Experiments.engine_for (Lazy.force ctx) prog in
  let pruner = Pruner.create e2 in
  let pruned = Ssf.estimate ~prune:(Pruner.prune pruner) e2 prep ~samples:500 ~seed:11 in
  Alcotest.(check string) "pruned report byte-identical"
    (Export.report_json plain) (Export.report_json pruned);
  let s = Pruner.stats pruner in
  Alcotest.(check int) "every sample checked" 500 s.Pruner.checked;
  Alcotest.(check bool) "nonzero prune count" true (s.Pruner.pruned > 0)

let test_pruned_byte_identical_write () =
  check_pruned_report_identical Programs.illegal_write Sampler.default_mixed

let test_pruned_byte_identical_read () =
  check_pruned_report_identical Programs.illegal_read Sampler.default_mixed

let test_pruned_byte_identical_read_random () =
  check_pruned_report_identical Programs.illegal_read Sampler.Random

(* ------------------------------------------------------------------ *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sva"
    [
      ("absint", q absint_props);
      ("window", [ Alcotest.test_case "chain distances" `Quick test_window_distances ]);
      ( "certificates",
        [
          Alcotest.test_case "artifact fields and schema" `Quick test_certificate_artifact;
          Alcotest.test_case "pruner self-check" `Slow test_pruner_self_check;
          Alcotest.test_case "illegal_write certified grid masked" `Slow
            test_certified_grid_write;
          Alcotest.test_case "illegal_read certified grid masked" `Slow test_certified_grid_read;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "illegal_write report byte-identical" `Slow
            test_pruned_byte_identical_write;
          Alcotest.test_case "illegal_read report byte-identical" `Slow
            test_pruned_byte_identical_read;
          Alcotest.test_case "illegal_read random report byte-identical" `Slow
            test_pruned_byte_identical_read_random;
        ] );
    ]
