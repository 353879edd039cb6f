(* Tests for the gate-level simulator: cycle semantics, switching
   signatures, and the transient (SET) engine's three masking effects. *)

module Hdl = Fmc_hdl.Hdl
module Vec = Fmc_hdl.Vec
module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module B = Fmc_netlist.Builder
module Sim = Fmc_gatesim.Cycle_sim
module Sig = Fmc_gatesim.Signature
module Tr = Fmc_gatesim.Transient
module Pattern = Fmc_gatesim.Pattern
module Bitvec = Fmc_prelude.Bitvec

(* ------------------------------------------------------------------ *)
(* Cycle_sim *)

let test_cycle_sim_comb () =
  let b = B.create () in
  let x = B.add_input b ~name:"x" in
  let y = B.add_input b ~name:"y" in
  let g = B.add_gate b K.And [| x; y |] in
  B.set_output b ~name:"o" g;
  let net = N.of_builder b in
  let sim = Sim.create net in
  let check a bb expect =
    Sim.set_input sim x a;
    Sim.set_input sim y bb;
    Sim.eval_comb sim;
    Alcotest.(check bool) "and output" expect (Sim.value sim g)
  in
  check false false false;
  check true false false;
  check true true true

let test_cycle_sim_input_validation () =
  let b = B.create () in
  let x = B.add_input b ~name:"x" in
  let g = B.add_gate b K.Not [| x |] in
  B.set_output b ~name:"o" g;
  let net = N.of_builder b in
  let sim = Sim.create net in
  Alcotest.check_raises "driving a gate" (Invalid_argument "Cycle_sim.set_input: not a primary input")
    (fun () -> Sim.set_input sim g true)

let test_cycle_sim_snapshot_restore () =
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx ~group:"cnt" ~width:8 ~init:0 in
  Hdl.connect r (Vec.add (Hdl.q r) (Vec.of_int ctx ~width:8 1));
  let net = Hdl.elaborate ctx in
  let sim = Sim.create net in
  for _ = 1 to 5 do
    Sim.step sim
  done;
  let snap = Sim.snapshot sim in
  Alcotest.(check int) "at 5" 5 (Sim.read_group sim "cnt");
  for _ = 1 to 3 do
    Sim.step sim
  done;
  Alcotest.(check int) "at 8" 8 (Sim.read_group sim "cnt");
  Sim.restore sim snap;
  Alcotest.(check int) "restored to 5" 5 (Sim.read_group sim "cnt");
  Alcotest.check_raises "bad snapshot" (Invalid_argument "Cycle_sim.restore: snapshot length mismatch")
    (fun () -> Sim.restore sim [| true |])

let test_cycle_sim_flip () =
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx ~group:"r" ~width:2 ~init:0 in
  Hdl.connect r (Hdl.q r);
  let net = Hdl.elaborate ctx in
  let sim = Sim.create net in
  let dff0 = (N.register_group net "r").(0) in
  Sim.flip sim dff0;
  Alcotest.(check int) "bit 0 flipped" 1 (Sim.read_group sim "r");
  Sim.flip sim dff0;
  Alcotest.(check int) "flipped back" 0 (Sim.read_group sim "r")

(* ------------------------------------------------------------------ *)
(* Signature *)

let test_signature_counter () =
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx ~group:"c" ~width:2 ~init:0 in
  Hdl.connect r (Vec.add (Hdl.q r) (Vec.of_int ctx ~width:2 1));
  let net = Hdl.elaborate ctx in
  let sim = Sim.create net in
  let rec_ = Sig.record sim ~cycles:8 ~drive:(fun _ _ -> ()) in
  let bit0 = (N.register_group net "c").(0) in
  let bit1 = (N.register_group net "c").(1) in
  (* Counter bit0: 0 1 0 1 0 1 0 1 -> switches every cycle after the first. *)
  Alcotest.(check string) "bit0 values" "01010101" (Bitvec.to_string (Sig.values rec_ bit0));
  Alcotest.(check string) "bit0 switches" "01111111" (Bitvec.to_string (Sig.signature rec_ bit0));
  Alcotest.(check string) "bit1 values" "00110011" (Bitvec.to_string (Sig.values rec_ bit1));
  Alcotest.(check string) "bit1 switches" "00101010" (Bitvec.to_string (Sig.signature rec_ bit1));
  (* bit0 switches whenever bit1 does -> correlation at shift 0 between bit1
     and bit0 is 1.0 in the direction |ss(b1) & ss(b0)| / |ss(b1)|. *)
  Alcotest.(check (float 1e-9)) "corr" 1.0 (Sig.correlation rec_ ~node:bit1 ~rs:bit0 ~shift:0)

(* ------------------------------------------------------------------ *)
(* Transient *)

(* Chain: input -> not g1 -> and g2 (with input en) -> dff r.
   Strike g1; see whether r latches depending on en / timing. *)
type chain = {
  net : N.t;
  sim : Sim.t;
  g1 : N.node;
  g2 : N.node;
  r_dff : N.node;
  inp : N.node;
  en : N.node;
}

let make_chain () =
  let b = B.create () in
  let inp = B.add_input b ~name:"i" in
  let en = B.add_input b ~name:"en" in
  let g1 = B.add_gate b K.Not [| inp |] in
  let g2 = B.add_gate b K.And [| g1; en |] in
  let r = B.add_dff b ~group:"r" ~bit:0 ~init:false in
  B.connect_dff b r ~d:g2;
  B.set_output b ~name:"o" g2;
  let net = N.of_builder b in
  { net; sim = Sim.create net; g1; g2; r_dff = r; inp; en }

let base_config net =
  let c = Tr.default_config net in
  (* Small deterministic numbers for testability. *)
  {
    c with
    Tr.clock_period = 1000.;
    setup_time = 30.;
    hold_time = 20.;
    delay_inv = 40.;
    delay_simple = 60.;
    delay_complex = 90.;
    attenuation = 20.;
    attenuation_threshold = 120.;
    min_width = 30.;
  }

let test_transient_latches_in_window () =
  let c = make_chain () in
  Sim.set_input c.sim c.inp false;
  Sim.set_input c.sim c.en true;
  (* en=1 sensitizes the AND. *)
  Sim.eval_comb c.sim;
  let config = base_config c.net in
  (* Strike g1 at t=900 width 150: pulse reaches g2 output at 960, spans
     [960, 1110) which covers the window [970, 1020]. *)
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = 900.; width = 150. } ] in
  Alcotest.(check (array int)) "latched" [| c.r_dff |] r.Tr.latched;
  Alcotest.(check int) "seeded" 1 r.Tr.seeded

let test_transient_logical_masking () =
  let c = make_chain () in
  Sim.set_input c.sim c.inp false;
  Sim.set_input c.sim c.en false;
  (* en=0 is the AND's controlling value: pulse from g1 is blocked. *)
  Sim.eval_comb c.sim;
  let config = base_config c.net in
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = 900.; width = 150. } ] in
  Alcotest.(check (array int)) "masked" [||] r.Tr.latched

let test_transient_window_masking () =
  let c = make_chain () in
  Sim.set_input c.sim c.inp false;
  Sim.set_input c.sim c.en true;
  Sim.eval_comb c.sim;
  let config = base_config c.net in
  (* Too early: pulse [160+60, 310+60) = [220, 370) misses [970, 1020]. *)
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = 160.; width = 150. } ] in
  Alcotest.(check (array int)) "too early" [||] r.Tr.latched;
  (* Too late: starts after the hold edge. *)
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = 1100.; width = 150. } ] in
  Alcotest.(check (array int)) "too late" [||] r.Tr.latched

let test_transient_electrical_masking () =
  let c = make_chain () in
  Sim.set_input c.sim c.inp false;
  Sim.set_input c.sim c.en true;
  Sim.eval_comb c.sim;
  let config = base_config c.net in
  (* Width 45 < threshold: loses 20 per gate; after g2 it is 25 < min_width
     -> dies even though timing would latch. *)
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = 950.; width = 45. } ] in
  Alcotest.(check (array int)) "attenuated away" [||] r.Tr.latched;
  (* Width 200 >= threshold: survives unchanged. *)
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = 900.; width = 200. } ] in
  Alcotest.(check (array int)) "wide pulse survives" [| c.r_dff |] r.Tr.latched

let test_transient_strike_on_g2_direct () =
  let c = make_chain () in
  Sim.set_input c.sim c.inp false;
  Sim.set_input c.sim c.en false;
  (* Even with en=0, a strike on g2's own output is not masked. *)
  Sim.eval_comb c.sim;
  let config = base_config c.net in
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.g2; time = 980.; width = 100. } ] in
  Alcotest.(check (array int)) "g2 strike latches" [| c.r_dff |] r.Tr.latched

let test_transient_direct_dff_strike () =
  let c = make_chain () in
  Sim.eval_comb c.sim;
  let config = base_config c.net in
  let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.r_dff; time = 0.; width = 100. } ] in
  Alcotest.(check (array int)) "direct" [| c.r_dff |] r.Tr.direct;
  Alcotest.(check (array int)) "no latched" [||] r.Tr.latched

let test_transient_validation () =
  let c = make_chain () in
  Sim.eval_comb c.sim;
  let config = base_config c.net in
  Alcotest.check_raises "zero width" (Invalid_argument "Transient.inject: non-positive strike width")
    (fun () -> ignore (Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = 0.; width = 0. } ]));
  Alcotest.check_raises "negative time" (Invalid_argument "Transient.inject: negative strike time")
    (fun () -> ignore (Tr.inject c.sim config ~strikes:[ { Tr.node = c.g1; time = -1.; width = 10. } ]))

let test_transient_mux_sensitization () =
  (* mux(sel, d0, d1) with equal data values: a pulse on sel is masked. *)
  let b = B.create () in
  let sel = B.add_input b ~name:"sel" in
  let d0 = B.add_input b ~name:"d0" in
  let d1 = B.add_input b ~name:"d1" in
  let selbuf = B.add_gate b K.Buf [| sel |] in
  let m = B.add_gate b K.Mux [| selbuf; d0; d1 |] in
  let r = B.add_dff b ~group:"r" ~bit:0 ~init:false in
  B.connect_dff b r ~d:m;
  B.set_output b ~name:"o" m;
  let net = N.of_builder b in
  let sim = Sim.create net in
  let config = base_config net in
  let strike = [ { Tr.node = selbuf; time = 870.; width = 150. } ] in
  Sim.set_input sim d0 true;
  Sim.set_input sim d1 true;
  Sim.eval_comb sim;
  let res = Tr.inject sim config ~strikes:strike in
  Alcotest.(check (array int)) "equal data masks select pulse" [||] res.Tr.latched;
  Sim.set_input sim d1 false;
  Sim.eval_comb sim;
  let res = Tr.inject sim config ~strikes:strike in
  Alcotest.(check (array int)) "differing data propagates" [| r |] res.Tr.latched

(* input -> Buf b1 -> Buf b2 -> D, and a Not gate that reaches no
   flip-flop. Under [base_config] the window is [970, 1020] and a Buf
   adds 40 ps; width 200 is above the attenuation threshold, so a pulse
   keeps its width. The bound must certify a strike whose pulse ends 1 ps
   before the window opens or starts 1 ps after it closes, and refuse
   (and the engine latch) one 1 ps the other side of either edge. *)
let test_transient_window_bound_edges () =
  let b = B.create () in
  let inp = B.add_input b ~name:"i" in
  let b1 = B.add_gate b K.Buf [| inp |] in
  let b2 = B.add_gate b K.Buf [| b1 |] in
  let stray = B.add_gate b K.Not [| inp |] in
  let r = B.add_dff b ~group:"r" ~bit:0 ~init:false in
  B.connect_dff b r ~d:b2;
  B.set_output b ~name:"o" stray;
  let net = N.of_builder b in
  let sim = Sim.create net in
  Sim.eval_comb sim;
  let config = base_config net in
  let bound = Tr.reach net config in
  let width = 200. in
  let case what node time ~certified =
    Alcotest.(check bool) (what ^ ": certified") certified (Tr.misses_window bound node ~time ~width);
    let res = Tr.inject sim config ~strikes:[ { Tr.node; time; width } ] in
    Alcotest.(check (array int)) (what ^ ": latched") (if certified then [||] else [| r |]) res.Tr.latched
  in
  (* b1's pulse reaches D at time + 40. *)
  case "ends 1 ps before the window" b1 729. ~certified:true;
  case "ends 1 ps inside the window" b1 731. ~certified:false;
  case "starts 1 ps after the window" b1 981. ~certified:true;
  case "starts 1 ps inside the window" b1 979. ~certified:false;
  (* b2 drives D itself. *)
  case "D driver, ends 1 ps before" b2 769. ~certified:true;
  case "D driver, starts 1 ps inside" b2 1019. ~certified:false;
  Alcotest.(check bool) "no sink reachable" true (Tr.misses_window bound stray ~time:900. ~width);
  Alcotest.(check bool) "a struck flip-flop is never certified" false
    (Tr.misses_window bound r ~time:0. ~width:1.)

(* ------------------------------------------------------------------ *)
(* Vcd *)

module Vcd = Fmc_gatesim.Vcd

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_vcd_counter () =
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx ~group:"c" ~width:4 ~init:0 in
  Hdl.connect r (Vec.add (Hdl.q r) (Vec.of_int ctx ~width:4 1));
  let net = Hdl.elaborate ctx in
  let sim = Sim.create net in
  let nodes = N.register_group net "c" in
  let vcd =
    Vcd.record sim ~cycles:4 ~drive:(fun _ _ -> ())
      ~signals:[ { Vcd.name = "count"; nodes } ]
  in
  Alcotest.(check bool) "header" true (contains vcd "$enddefinitions");
  Alcotest.(check bool) "bus declared" true (contains vcd "$var wire 4 ! count [3:0] $end");
  Alcotest.(check bool) "initial value" true (contains vcd "b0000 !");
  Alcotest.(check bool) "counts up" true (contains vcd "b0011 !");
  Alcotest.(check bool) "timesteps" true (contains vcd "#3")

let test_vcd_change_compression () =
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx ~group:"hold" ~width:1 ~init:1 in
  Hdl.connect r (Hdl.q r);
  let net = Hdl.elaborate ctx in
  let sim = Sim.create net in
  let vcd =
    Vcd.record sim ~cycles:5 ~drive:(fun _ _ -> ())
      ~signals:[ { Vcd.name = "hold"; nodes = N.register_group net "hold" } ]
  in
  (* The constant signal is dumped once, not five times. *)
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length vcd then acc
      else go (i + 1) (if String.sub vcd i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "single dump" 1 (count "1!")

let test_vcd_validation () =
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx ~group:"x" ~width:1 ~init:0 in
  Hdl.connect r (Hdl.q r);
  let net = Hdl.elaborate ctx in
  let sim = Sim.create net in
  let s = { Vcd.name = "x"; nodes = N.register_group net "x" } in
  Alcotest.check_raises "no signals" (Invalid_argument "Vcd.record: no signals") (fun () ->
      ignore (Vcd.record sim ~cycles:1 ~drive:(fun _ _ -> ()) ~signals:[]));
  Alcotest.check_raises "duplicate names" (Invalid_argument "Vcd.record: duplicate signal name")
    (fun () -> ignore (Vcd.record sim ~cycles:1 ~drive:(fun _ _ -> ()) ~signals:[ s; s ]));
  Alcotest.check_raises "bad cycles" (Invalid_argument "Vcd.record: cycles must be positive")
    (fun () -> ignore (Vcd.record sim ~cycles:0 ~drive:(fun _ _ -> ()) ~signals:[ s ]))

(* ------------------------------------------------------------------ *)
(* Glitch *)

module Glitch = Fmc_gatesim.Glitch

(* Two registers: r_fast.d = NOT in (1 level), r_slow.d = 4-level chain. *)
let glitch_net () =
  let b = B.create () in
  let inp = B.add_input b ~name:"i" in
  let g1 = B.add_gate b K.Not [| inp |] in
  let g2 = B.add_gate b K.Not [| g1 |] in
  let g3 = B.add_gate b K.Not [| g2 |] in
  let g4 = B.add_gate b K.Not [| g3 |] in
  let rf = B.add_dff b ~group:"fast" ~bit:0 ~init:false in
  let rs = B.add_dff b ~group:"slow" ~bit:0 ~init:false in
  B.connect_dff b rf ~d:g1;
  B.connect_dff b rs ~d:g4;
  B.set_output b ~name:"o" g4;
  (N.of_builder b, inp, rf, rs)

let test_glitch_static_timing () =
  let net, _, _, rs = glitch_net () in
  let config = base_config net in
  let timing = Glitch.static_timing net config in
  Alcotest.(check (float 1e-9)) "critical = 4 inverters" (4. *. 40.) (Glitch.critical_path timing);
  Alcotest.(check (float 1e-9)) "slow D arrival" 160. (Glitch.arrival timing (N.dff_d net rs))

let test_glitch_violation_threshold () =
  let net, inp, rf, rs = glitch_net () in
  let config = base_config net in
  let timing = Glitch.static_timing net config in
  let sim = Sim.create net in
  (* i=0: g1=1 (fast D=1 vs Q=0: changing), g4=0 (slow D=0 vs Q=0: same).
     Use i=1 instead: g1=0 (same as fast Q), g4=1 (slow changes). *)
  Sim.set_input sim inp true;
  Sim.eval_comb sim;
  (* Nominal period: nothing violated. *)
  let v = Glitch.violated timing config sim ~period:config.Tr.clock_period in
  Alcotest.(check (array int)) "no violation at nominal period" [||] v;
  (* Period covering 2 inverters + setup: the 4-level path misses. *)
  let v = Glitch.violated timing config sim ~period:(80. +. 30. +. 1.) in
  Alcotest.(check (array int)) "slow register violated" [| rs |] v;
  ignore rf

let test_glitch_unchanged_value_harmless () =
  let net, inp, _, _ = glitch_net () in
  let config = base_config net in
  let timing = Glitch.static_timing net config in
  let sim = Sim.create net in
  Sim.set_input sim inp false;
  Sim.eval_comb sim;
  (* g4 = 0 equals slow's current Q: a timing violation cannot be observed. *)
  let v = Glitch.violated timing config sim ~period:10. in
  (* fast: g1 = 1 differs from Q=0 and arrival 40 > 10-30 -> violated. *)
  Alcotest.(check int) "only the changing register" 1 (Array.length v)

let test_glitch_latch_keeps_stale () =
  let net, inp, _rf, rs = glitch_net () in
  let config = base_config net in
  let timing = Glitch.static_timing net config in
  let sim = Sim.create net in
  Sim.set_input sim inp true;
  Sim.eval_comb sim;
  (* Glitch at 111ps: slow (arrival 160) violated, fast (arrival 40) fine. *)
  let stale = Glitch.latch_with_glitch timing config sim ~period:111. in
  Alcotest.(check (array int)) "stale set" [| rs |] stale;
  Alcotest.(check int) "slow kept 0" 0 (Sim.read_group sim "slow");
  Alcotest.(check int) "fast latched g1=0" 0 (Sim.read_group sim "fast");
  (* A clean latch would have stored g4 = 1 into slow. *)
  Sim.eval_comb sim;
  let clean = Glitch.latch_with_glitch timing config sim ~period:config.Tr.clock_period in
  Alcotest.(check (array int)) "nominal period latches clean" [||] clean;
  Alcotest.(check int) "slow now 1" 1 (Sim.read_group sim "slow")

let test_glitch_validation () =
  let net, _, _, _ = glitch_net () in
  let config = base_config net in
  let timing = Glitch.static_timing net config in
  let sim = Sim.create net in
  Sim.eval_comb sim;
  Alcotest.check_raises "bad period" (Invalid_argument "Glitch.violated: non-positive period")
    (fun () -> ignore (Glitch.violated timing config sim ~period:0.))

(* ------------------------------------------------------------------ *)
(* Pattern *)

let pattern_net () =
  (* Two groups: "a" (16 bits), "b" (8 bits). *)
  let ctx = Hdl.create () in
  let a = Hdl.reg ctx ~group:"a" ~width:16 ~init:0 in
  let b = Hdl.reg ctx ~group:"b" ~width:8 ~init:0 in
  Hdl.connect a (Hdl.q a);
  Hdl.connect b (Hdl.q b);
  Hdl.elaborate ctx

let test_pattern_classify () =
  let net = pattern_net () in
  let a = N.register_group net "a" and b = N.register_group net "b" in
  Alcotest.(check (option string)) "empty" None
    (Option.map Pattern.to_string (Pattern.classify net ~flips:[||]));
  Alcotest.(check (option string)) "single bit" (Some "single-bit")
    (Option.map Pattern.to_string (Pattern.classify net ~flips:[| a.(3) |]));
  Alcotest.(check (option string)) "single byte" (Some "single-byte")
    (Option.map Pattern.to_string (Pattern.classify net ~flips:[| a.(0); a.(7) |]));
  Alcotest.(check (option string)) "crosses byte boundary" (Some "multi-byte")
    (Option.map Pattern.to_string (Pattern.classify net ~flips:[| a.(7); a.(8) |]));
  Alcotest.(check (option string)) "crosses groups" (Some "multi-byte")
    (Option.map Pattern.to_string (Pattern.classify net ~flips:[| a.(0); b.(0) |]))

let test_pattern_fills_byte () =
  let net = pattern_net () in
  let a = N.register_group net "a" in
  let full = Array.init 8 (fun i -> a.(i)) in
  Alcotest.(check bool) "full byte" true (Pattern.fills_whole_byte net ~flips:full);
  Alcotest.(check bool) "partial byte" false
    (Pattern.fills_whole_byte net ~flips:(Array.sub full 0 5))

let test_pattern_key () =
  let net = pattern_net () in
  let a = N.register_group net "a" in
  Alcotest.(check string) "canonical order" "a[10],a[2]" (Pattern.key net ~flips:[| a.(10); a.(2) |]);
  Alcotest.(check string) "order independent" (Pattern.key net ~flips:[| a.(2); a.(10) |])
    (Pattern.key net ~flips:[| a.(10); a.(2) |])

(* Property: latched set of a strike is monotone in pulse width (wider
   pulses can only latch at least the same registers in this simple chain). *)
let transient_props =
  [
    QCheck.Test.make ~name:"wider pulses never latch fewer registers (chain)" ~count:100
      QCheck.(pair (float_range 0. 1100.) (float_range 30. 200.))
      (fun (time, width) ->
        let c = make_chain () in
        Sim.set_input c.sim c.inp false;
        Sim.set_input c.sim c.en true;
        Sim.eval_comb c.sim;
        let config = base_config c.net in
        let strike w = [ { Tr.node = c.g1; time; width = w } ] in
        let narrow = (Tr.inject c.sim config ~strikes:(strike width)).Tr.latched in
        let wide = (Tr.inject c.sim config ~strikes:(strike (width +. 100.))).Tr.latched in
        Array.for_all (fun d -> Array.mem d wide) narrow);
    QCheck.Test.make ~name:"strikes on unplaced kinds are ignored" ~count:50
      QCheck.(float_range 0. 500.)
      (fun time ->
        let c = make_chain () in
        Sim.eval_comb c.sim;
        let config = base_config c.net in
        let r = Tr.inject c.sim config ~strikes:[ { Tr.node = c.inp; time; width = 100. } ] in
        r.Tr.seeded = 0 && Array.length r.Tr.latched = 0);
  ]

module Rng = Fmc_prelude.Rng

(* ------------------------------------------------------------------ *)
(* Event-driven transient propagation against the reference: a full
   topological sweep that visits every gate, with the same pulse
   merging, sensitization and attenuation rules. *)

module Sweep = struct
  type pulse = { start : float; width : float }

  let add_pulse (config : Tr.config) pulses p =
    let overlaps a b = a.start <= b.start +. b.width && b.start <= a.start +. a.width in
    let merged, rest = List.partition (fun existing -> overlaps existing p) pulses in
    let p =
      List.fold_left
        (fun acc e ->
          let start = Float.min acc.start e.start in
          let stop = Float.max (acc.start +. acc.width) (e.start +. e.width) in
          { start; width = stop -. start })
        p merged
    in
    let out = p :: rest in
    if List.length out <= config.Tr.max_pulses_per_net then out
    else begin
      let sorted = List.sort (fun a b -> compare b.width a.width) out in
      List.filteri (fun i _ -> i < config.Tr.max_pulses_per_net) sorted
    end

  let sensitized sim net g idx =
    let fanins = N.fanins net g in
    match N.kind net g with
    | K.Gate gate -> begin
        match gate with
        | K.Not | K.Buf -> true
        | K.Xor | K.Xnor -> true
        | K.And | K.Nand | K.Or | K.Nor -> begin
            match K.controlling_value gate with
            | Some c ->
                let blocked = ref false in
                Array.iteri
                  (fun j f -> if j <> idx && Sim.value sim f = c then blocked := true)
                  fanins;
                not !blocked
            | None -> true
          end
        | K.Mux ->
            let sel = Sim.value sim fanins.(0) in
            if idx = 0 then Sim.value sim fanins.(1) <> Sim.value sim fanins.(2)
            else if idx = 1 then not sel
            else sel
      end
    | _ -> false

  let attenuate (config : Tr.config) p =
    if p.width >= config.Tr.attenuation_threshold then Some p
    else begin
      let width = p.width -. config.Tr.attenuation in
      if width < config.Tr.min_width then None else Some { p with width }
    end

  let inject ?(watch = [||]) sim (config : Tr.config) ~strikes =
    let net = Sim.netlist sim in
    let n = N.num_nodes net in
    let pulses : pulse list array = Array.make n [] in
    let direct = ref [] in
    let seeded = ref 0 in
    List.iter
      (fun { Tr.node; time; width } ->
        if width <= 0. then invalid_arg "Transient.inject: non-positive strike width";
        if time < 0. then invalid_arg "Transient.inject: negative strike time";
        match N.kind net node with
        | K.Dff _ -> direct := node :: !direct
        | K.Gate _ ->
            pulses.(node) <- add_pulse config pulses.(node) { start = time; width };
            incr seeded
        | K.Input | K.Const _ -> ())
      strikes;
    Array.iter
      (fun g ->
        match N.kind net g with
        | K.Gate gate ->
            let fanins = N.fanins net g in
            Array.iteri
              (fun idx f ->
                match pulses.(f) with
                | [] -> ()
                | incoming ->
                    if sensitized sim net g idx then
                      List.iter
                        (fun p ->
                          match attenuate config p with
                          | None -> ()
                          | Some p ->
                              let p = { p with start = p.start +. Tr.gate_delay config gate } in
                              pulses.(g) <- add_pulse config pulses.(g) p)
                        incoming)
              fanins
        | _ -> ())
      (N.gates net);
    let win_lo = config.Tr.clock_period -. config.Tr.setup_time in
    let win_hi = config.Tr.clock_period +. config.Tr.hold_time in
    let latched = ref [] in
    let reached = ref 0 in
    Array.iter
      (fun d ->
        let dnode = N.dff_d net d in
        match pulses.(dnode) with
        | [] -> ()
        | ps ->
            reached := !reached + List.length ps;
            let hits p = p.start < win_hi && p.start +. p.width > win_lo in
            if List.exists hits ps then latched := d :: !latched)
      (N.dffs net);
    let hits p = p.start < win_hi && p.start +. p.width > win_lo in
    let watched_hits =
      Array.to_list watch |> List.filter (fun node -> List.exists hits pulses.(node))
    in
    let sort_nodes l = Array.of_list (List.sort_uniq compare l) in
    {
      Tr.latched = sort_nodes !latched;
      direct = sort_nodes !direct;
      seeded = !seeded;
      reached_dff = !reached;
      watched_hits = sort_nodes watched_hits;
    }
end

(* Random strikes on a settled simulator: mostly gates, some flip-flops
   and inputs, at random times and widths, under a randomly tightened
   pulse-list bound. One scratch serves every case, and some cases first
   abort a call half-way through its seeding, so stale state from earlier
   calls would show. *)
let event_driven_matches_sweep rng scratch sim ~watch =
  let net = Sim.netlist sim in
  let base = Tr.default_config net in
  let config = { base with Tr.max_pulses_per_net = Rng.choose rng [| 1; 2; 8 |] } in
  let gates = N.gates net and dffs = N.dffs net and inputs = N.inputs net in
  let strike () =
    let node =
      match Rng.int rng 10 with
      | 0 -> Rng.choose rng dffs
      | 1 -> Rng.choose rng inputs
      | _ -> Rng.choose rng gates
    in
    {
      Tr.node;
      time = Rng.float rng config.Tr.clock_period;
      width = 20. +. Rng.float rng 400.;
    }
  in
  let strikes = List.init (1 + Rng.int rng 24) (fun _ -> strike ()) in
  if Rng.int rng 3 = 0 then begin
    let aborted = [ { (strike ()) with Tr.node = Rng.choose rng gates }; { (strike ()) with Tr.width = 0. } ] in
    match Tr.inject ~scratch sim config ~strikes:aborted with
    | _ -> ()
    | exception Invalid_argument _ -> ()
  end;
  let expected = Sweep.inject ~watch sim config ~strikes in
  Tr.inject ~scratch ~watch sim config ~strikes = expected
  && Tr.inject ~watch sim config ~strikes = expected

(* The processor with its memory write port as the watch, and the
   crypto core with its ciphertext register, each with one scratch. *)
let cpu =
  lazy
    (let circuit = Fmc_cpu.Circuit.build () in
     let watch =
       Array.concat
         [
           [| circuit.Fmc_cpu.Circuit.dmem_we |];
           circuit.Fmc_cpu.Circuit.dmem_addr;
           circuit.Fmc_cpu.Circuit.dmem_wdata;
         ]
     in
     (circuit, watch, Tr.scratch circuit.Fmc_cpu.Circuit.net))

let crypto =
  lazy
    (let core = Fmc_crypto.Core_circuit.build () in
     (core, Tr.scratch core.Fmc_crypto.Core_circuit.net))

(* The processor settled at a random cycle of a benchmark run. *)
let settled_cpu rng =
  let circuit, watch, scratch = Lazy.force cpu in
  let sys = Fmc_cpu.Netsys.create circuit Fmc_isa.Programs.illegal_write in
  for _ = 1 to Rng.int rng 160 do
    Fmc_cpu.Netsys.step sys
  done;
  Fmc_cpu.Netsys.settle sys;
  (Fmc_cpu.Netsys.sim sys, watch, scratch)

(* The crypto core in a random state under random inputs. *)
let settled_crypto rng =
  let core, scratch = Lazy.force crypto in
  let net = core.Fmc_crypto.Core_circuit.net in
  let sim = Sim.create net in
  Array.iter (fun d -> if Rng.bool rng then Sim.flip sim d) (N.dffs net);
  Array.iter (fun i -> Sim.set_input sim i (Rng.bool rng)) (N.inputs net);
  Sim.eval_comb sim;
  (sim, core.Fmc_crypto.Core_circuit.ct, scratch)

let oracle_props =
  [
    QCheck.Test.make ~name:"event-driven = full sweep (processor netlist)" ~count:80
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let sim, watch, scratch = settled_cpu rng in
        event_driven_matches_sweep rng scratch sim ~watch);
    QCheck.Test.make ~name:"event-driven = full sweep (crypto core)" ~count:80
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let sim, watch, scratch = settled_crypto rng in
        event_driven_matches_sweep rng scratch sim ~watch);
  ]

(* The latch-window bound against the pulse engine: 1-8 random gates
   struck at random times and widths, under a randomly tightened
   pulse-list bound; whenever every strike is certified, nothing latches
   and no watched node is hit. [states] settled states, [sets] strike
   sets on each; returns how many sets were wholly certified, so a
   predicate that never certifies fails the caller's minimum. *)
let bound_never_latches ~seed ~states ~sets settled =
  let rng = Rng.create seed in
  let certified = ref 0 in
  for _ = 1 to states do
    let sim, watch, scratch = settled rng in
    let net = Sim.netlist sim in
    let base = Tr.default_config net in
    let config = { base with Tr.max_pulses_per_net = Rng.choose rng [| 1; 2; 8 |] } in
    let bound = Tr.reach ~watch net config in
    let gates = N.gates net in
    for _ = 1 to sets do
      let strikes =
        List.init (1 + Rng.int rng 8) (fun _ ->
            {
              Tr.node = Rng.choose rng gates;
              time = Rng.float rng config.Tr.clock_period;
              width = 20. +. Rng.float rng 400.;
            })
      in
      if
        List.for_all
          (fun { Tr.node; time; width } -> Tr.misses_window bound node ~time ~width)
          strikes
      then begin
        incr certified;
        let r = Tr.inject ~scratch ~watch sim config ~strikes in
        Alcotest.(check (array int)) "certified strikes latch nothing" [||] r.Tr.latched;
        Alcotest.(check (array int)) "certified strikes hit no watched node" [||]
          r.Tr.watched_hits
      end
    done
  done;
  !certified

let test_bound_processor () =
  let certified = bound_never_latches ~seed:5 ~states:20 ~sets:40 settled_cpu in
  Alcotest.(check bool) (Printf.sprintf "%d of 800 sets certified" certified) true (certified >= 200)

let test_bound_crypto () =
  let certified = bound_never_latches ~seed:6 ~states:20 ~sets:40 settled_crypto in
  Alcotest.(check bool) (Printf.sprintf "%d of 800 sets certified" certified) true (certified >= 200)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gatesim"
    [
      ( "cycle_sim",
        [
          Alcotest.test_case "combinational evaluation" `Quick test_cycle_sim_comb;
          Alcotest.test_case "input validation" `Quick test_cycle_sim_input_validation;
          Alcotest.test_case "snapshot/restore" `Quick test_cycle_sim_snapshot_restore;
          Alcotest.test_case "register flip" `Quick test_cycle_sim_flip;
        ] );
      ("signature", [ Alcotest.test_case "counter signatures" `Quick test_signature_counter ]);
      ( "transient",
        [
          Alcotest.test_case "latches in window" `Quick test_transient_latches_in_window;
          Alcotest.test_case "logical masking" `Quick test_transient_logical_masking;
          Alcotest.test_case "latching-window masking" `Quick test_transient_window_masking;
          Alcotest.test_case "electrical masking" `Quick test_transient_electrical_masking;
          Alcotest.test_case "strike past masking gate" `Quick test_transient_strike_on_g2_direct;
          Alcotest.test_case "direct flip-flop strike" `Quick test_transient_direct_dff_strike;
          Alcotest.test_case "argument validation" `Quick test_transient_validation;
          Alcotest.test_case "mux sensitization" `Quick test_transient_mux_sensitization;
          Alcotest.test_case "latch-window bound edges" `Quick test_transient_window_bound_edges;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "counter waveform" `Quick test_vcd_counter;
          Alcotest.test_case "change compression" `Quick test_vcd_change_compression;
          Alcotest.test_case "validation" `Quick test_vcd_validation;
        ] );
      ( "glitch",
        [
          Alcotest.test_case "static timing" `Quick test_glitch_static_timing;
          Alcotest.test_case "violation threshold" `Quick test_glitch_violation_threshold;
          Alcotest.test_case "unchanged value harmless" `Quick test_glitch_unchanged_value_harmless;
          Alcotest.test_case "latch keeps stale state" `Quick test_glitch_latch_keeps_stale;
          Alcotest.test_case "argument validation" `Quick test_glitch_validation;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "classification" `Quick test_pattern_classify;
          Alcotest.test_case "fills whole byte" `Quick test_pattern_fills_byte;
          Alcotest.test_case "canonical key" `Quick test_pattern_key;
        ] );
      ("props", q transient_props);
      ( "oracle",
        q oracle_props
        @ [
            Alcotest.test_case "latch-window bound (processor netlist)" `Quick test_bound_processor;
            Alcotest.test_case "latch-window bound (crypto core)" `Quick test_bound_crypto;
          ] );
    ]
