(* Tests for the processor: model semantics per instruction, MPU/trap
   behavior, benchmark golden runs, and — the keystone of the cross-level
   framework — bit-exact RTL-vs-gate co-simulation. *)

module Isa = Fmc_isa.Isa
module Asm = Fmc_isa.Asm
module Programs = Fmc_isa.Programs
module Arch = Fmc_cpu.Arch
module Model = Fmc_cpu.Model
module System = Fmc_cpu.System
module Circuit = Fmc_cpu.Circuit
module Netsys = Fmc_cpu.Netsys
module Rng = Fmc_prelude.Rng

let circuit = lazy (Circuit.build ())

(* Run a raw instruction list on a fresh model with trivial memory. *)
let run_program ?(dmem_size = 64) instrs =
  let imem = Array.map Isa.encode (Array.of_list instrs) in
  let dmem = Array.make dmem_size 0 in
  let st = Arch.create () in
  let fetch pc = if pc < Array.length imem then imem.(pc) else 0 in
  let load a = dmem.(a land (dmem_size - 1)) in
  let store a v = dmem.(a land (dmem_size - 1)) <- v in
  let steps = ref 0 in
  while (not st.Arch.halted) && !steps < 500 do
    ignore (Model.step st ~fetch ~load ~store);
    incr steps
  done;
  (st, dmem)

(* ------------------------------------------------------------------ *)
(* Arch *)

let test_arch_groups_roundtrip () =
  let st = Arch.create () in
  List.iter
    (fun (name, width) ->
      let v = (0xABCD land ((1 lsl width) - 1)) lxor 1 in
      Arch.set_group st name v;
      Alcotest.(check int) name v (Arch.get_group st name))
    Arch.groups;
  (* One group at a time set to all ones on a reset state, every index
     read back: an index mapped to the wrong field shows. *)
  let reset = Arch.create () in
  List.iteri
    (fun i (name, width) ->
      let st = Arch.create () in
      Arch.set_group st name ((1 lsl width) - 1);
      List.iteri
        (fun j _ ->
          let expected = if j = i then (1 lsl width) - 1 else Arch.get_group_at reset j in
          Alcotest.(check int) (Printf.sprintf "%s set, index %d" name j) expected (Arch.get_group_at st j))
        Arch.groups)
    Arch.groups;
  Alcotest.check_raises "index past the last group"
    (Invalid_argument "Arch: no register group at index 19") (fun () ->
      ignore (Arch.get_group_at st (List.length Arch.groups)))

let test_arch_reset_values () =
  let st = Arch.create () in
  Alcotest.(check int) "pc" 0 st.Arch.pc;
  Alcotest.(check int) "mode privileged" 1 st.Arch.mode;
  Alcotest.(check bool) "not halted" false st.Arch.halted

let test_arch_total_bits () =
  (* 16 pc + 8*16 regs + 1 + 16 epc + 2 cause + 1 halted + 2*(16+16+4) mpu *)
  Alcotest.(check int) "bits" (16 + 128 + 1 + 16 + 2 + 1 + 72) Arch.total_bits

let test_arch_diff () =
  let a = Arch.create () and b = Arch.create () in
  Alcotest.(check (list string)) "equal" [] (Arch.diff a b);
  b.Arch.pc <- 5;
  b.Arch.regs.(3) <- 7;
  Alcotest.(check (list string)) "differs" [ "pc"; "reg3" ] (Arch.diff a b)

let test_mpu_allows () =
  let st = Arch.create () in
  st.Arch.mpu_base.(0) <- 0x100;
  st.Arch.mpu_limit.(0) <- 0x1ff;
  st.Arch.mpu_ctrl.(0) <- Isa.ctrl_enable lor Isa.ctrl_read;
  Alcotest.(check bool) "read inside" true (Arch.mpu_allows st ~addr:0x150 ~perm:Arch.Read);
  Alcotest.(check bool) "write inside denied" false (Arch.mpu_allows st ~addr:0x150 ~perm:Arch.Write);
  Alcotest.(check bool) "below range" false (Arch.mpu_allows st ~addr:0xff ~perm:Arch.Read);
  Alcotest.(check bool) "above range" false (Arch.mpu_allows st ~addr:0x200 ~perm:Arch.Read);
  Alcotest.(check bool) "boundary base" true (Arch.mpu_allows st ~addr:0x100 ~perm:Arch.Read);
  Alcotest.(check bool) "boundary limit" true (Arch.mpu_allows st ~addr:0x1ff ~perm:Arch.Read);
  st.Arch.mpu_ctrl.(0) <- Isa.ctrl_read;
  Alcotest.(check bool) "disabled region" false (Arch.mpu_allows st ~addr:0x150 ~perm:Arch.Read);
  (* Second region. *)
  st.Arch.mpu_base.(1) <- 0x0;
  st.Arch.mpu_limit.(1) <- 0xf;
  st.Arch.mpu_ctrl.(1) <- Isa.ctrl_enable lor Isa.ctrl_exec;
  Alcotest.(check bool) "region 1 exec" true (Arch.mpu_allows st ~addr:3 ~perm:Arch.Exec);
  (* Privileged mode bypasses. *)
  Alcotest.(check bool) "privileged" true (Arch.access_allowed st ~addr:0x999 ~perm:Arch.Write);
  st.Arch.mode <- 0;
  Alcotest.(check bool) "user blocked" false (Arch.access_allowed st ~addr:0x999 ~perm:Arch.Write)

(* ------------------------------------------------------------------ *)
(* Model instruction semantics *)

let test_model_alu () =
  let st, _ =
    run_program
      [
        Isa.Ldi (1, 200);
        Isa.Ldi (2, 45);
        Isa.Add (3, 1, 2);
        Isa.Sub (4, 1, 2);
        Isa.And_ (5, 1, 2);
        Isa.Or_ (6, 1, 2);
        Isa.Xor_ (7, 1, 2);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "add" 245 st.Arch.regs.(3);
  Alcotest.(check int) "sub" 155 st.Arch.regs.(4);
  Alcotest.(check int) "and" (200 land 45) st.Arch.regs.(5);
  Alcotest.(check int) "or" (200 lor 45) st.Arch.regs.(6);
  Alcotest.(check int) "xor" (200 lxor 45) st.Arch.regs.(7)

let test_model_wraparound () =
  let st, _ =
    run_program
      [ Isa.Ldi (1, 0); Isa.Lui (1, 0xff); Isa.Ldi (2, 0xff); Isa.Or_ (1, 1, 2); Isa.Ldi (3, 1); Isa.Add (4, 1, 3); Isa.Halt ]
  in
  Alcotest.(check int) "r1 = 0xffff" 0xffff st.Arch.regs.(1);
  Alcotest.(check int) "wraps to 0" 0 st.Arch.regs.(4)

let test_model_lui_keeps_low () =
  let st, _ = run_program [ Isa.Ldi (1, 0x34); Isa.Lui (1, 0x12); Isa.Halt ] in
  Alcotest.(check int) "lui" 0x1234 st.Arch.regs.(1)

let test_model_shifts () =
  let st, _ =
    run_program
      [
        Isa.Ldi (1, 0x81);
        Isa.Ldi (2, 4);
        Isa.Shl (3, 1, 2);
        Isa.Shr (4, 1, 2);
        Isa.Ldi (5, 31);  (* shift amount masked to 15 *)
        Isa.Shl (6, 1, 5);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "shl" 0x810 st.Arch.regs.(3);
  Alcotest.(check int) "shr" 0x8 st.Arch.regs.(4);
  Alcotest.(check int) "shift masked" ((0x81 lsl 15) land 0xffff) st.Arch.regs.(6)

let test_model_load_store () =
  let st, dmem = run_program [ Isa.Ldi (1, 10); Isa.Ldi (2, 0xCD); Isa.St (2, 1, 3); Isa.Ld (3, 1, 3); Isa.Halt ] in
  Alcotest.(check int) "stored" 0xCD dmem.(13);
  Alcotest.(check int) "loaded" 0xCD st.Arch.regs.(3)

let test_model_branches () =
  let prog =
    [
      Asm.I (Isa.Ldi (1, 3));
      Asm.I (Isa.Ldi (2, 1));
      Asm.I (Isa.Ldi (3, 0));
      Asm.Label "loop";
      Asm.I (Isa.Add (3, 3, 1));
      Asm.I (Isa.Sub (1, 1, 2));
      Asm.Brnz_to (1, "loop");
      Asm.I Isa.Halt;
    ]
  in
  let imem = Asm.assemble prog in
  let st = Arch.create () in
  let fetch pc = if pc < Array.length imem then imem.(pc) else 0 in
  let steps = ref 0 in
  while (not st.Arch.halted) && !steps < 100 do
    ignore (Model.step st ~fetch ~load:(fun _ -> 0) ~store:(fun _ _ -> ()));
    incr steps
  done;
  Alcotest.(check int) "3+2+1" 6 st.Arch.regs.(3)

let test_model_jalr () =
  let st, _ = run_program [ Isa.Ldi (1, 4); Isa.Jalr (2, 1); Isa.Halt; Isa.Halt; Isa.Ldi (3, 9); Isa.Halt ] in
  Alcotest.(check int) "link" 2 st.Arch.regs.(2);
  Alcotest.(check int) "landed" 9 st.Arch.regs.(3)

let test_model_jalr_same_reg () =
  (* jalr r1, r1: target must be the OLD r1. *)
  let st, _ = run_program [ Isa.Ldi (1, 3); Isa.Jalr (1, 1); Isa.Halt; Isa.Ldi (4, 5); Isa.Halt ] in
  Alcotest.(check int) "landed at old r1" 5 st.Arch.regs.(4);
  Alcotest.(check int) "link written" 2 st.Arch.regs.(1)

let test_model_halt_freezes () =
  let st, _ = run_program [ Isa.Ldi (1, 1); Isa.Halt; Isa.Ldi (1, 99) ] in
  Alcotest.(check int) "no execution past halt" 1 st.Arch.regs.(1);
  Alcotest.(check int) "pc frozen at halt" 1 st.Arch.pc

let test_model_mpuw_and_priv_trap () =
  (* Privileged MPUW works; user-mode MPUW traps with cause_priv. *)
  let st, _ =
    run_program [ Isa.Ldi (1, 0x42); Isa.Mpuw (Isa.fld_base0, 1); Isa.Halt ]
  in
  Alcotest.(check int) "mpu base written" 0x42 st.Arch.mpu_base.(0);
  (* User-mode attempt: grant exec over the program, drop, then mpuw. *)
  let st, _ =
    run_program
      [
        Isa.Ldi (1, 0);
        Isa.Mpuw (Isa.fld_base1, 1);
        Isa.Ldi (1, 63);
        Isa.Mpuw (Isa.fld_limit1, 1);
        Isa.Ldi (1, Isa.ctrl_enable lor Isa.ctrl_exec);
        Isa.Mpuw (Isa.fld_ctrl1, 1);
        Isa.Retu;
        (* user mode from here *)
        Isa.Mpuw (Isa.fld_base0, 1);
        Isa.Halt;
      ]
  in
  (* Trap vector = 2 holds "ldi r1, 63" — harmless; execution continues
     privileged and eventually falls into the halt. *)
  Alcotest.(check int) "cause priv" Isa.cause_priv st.Arch.cause;
  Alcotest.(check int) "epc at offender" 7 st.Arch.epc;
  Alcotest.(check int) "mode back to privileged" 1 st.Arch.mode

let test_model_data_violation () =
  (* User can write inside the window, traps outside it. *)
  let st, dmem =
    run_program
      [
        Isa.Ldi (1, 16);
        Isa.Mpuw (Isa.fld_base0, 1);
        Isa.Ldi (1, 31);
        Isa.Mpuw (Isa.fld_limit0, 1);
        Isa.Ldi (1, Isa.ctrl_enable lor Isa.ctrl_read lor Isa.ctrl_write);
        Isa.Mpuw (Isa.fld_ctrl0, 1);
        Isa.Ldi (1, 0);
        Isa.Mpuw (Isa.fld_base1, 1);
        Isa.Ldi (1, 63);
        Isa.Mpuw (Isa.fld_limit1, 1);
        Isa.Ldi (1, Isa.ctrl_enable lor Isa.ctrl_exec);
        Isa.Mpuw (Isa.fld_ctrl1, 1);
        Isa.Retu;
        (* user mode *)
        Isa.Ldi (2, 20);
        Isa.Ldi (3, 0x77);
        Isa.St (3, 2, 0);  (* legal: addr 20 in [16,31] *)
        Isa.Ldi (2, 40);
        Isa.St (3, 2, 0);  (* illegal: addr 40 *)
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "legal store done" 0x77 dmem.(20);
  Alcotest.(check int) "illegal store squashed" 0 dmem.(40);
  Alcotest.(check int) "cause data" Isa.cause_data st.Arch.cause;
  Alcotest.(check int) "trap pc target was vector" 1 st.Arch.mode

let test_model_instr_violation () =
  (* Drop to user with NO exec region: immediate instruction violation. *)
  let st, _ = run_program [ Isa.Retu; Isa.Halt ] in
  Alcotest.(check int) "cause instr" Isa.cause_instr st.Arch.cause;
  Alcotest.(check int) "epc" 1 st.Arch.epc

let test_model_trapret () =
  (* trapret returns to epc+1 in user mode. *)
  let st, _ =
    run_program
      [
        (* 0 *) Isa.Brz (0, 2);  (* skip over handler to boot *)
        (* 1 *) Isa.Halt;  (* unused *)
        (* 2 *) Isa.Trapret;  (* trap handler: skip offending instruction *)
        (* boot at 3 *)
        (* 3 *) Isa.Ldi (1, 4);
        (* 4 *) Isa.Mpuw (Isa.fld_base1, 1);
        (* 5 *) Isa.Ldi (1, 63);
        (* 6 *) Isa.Mpuw (Isa.fld_limit1, 1);
        (* 7 *) Isa.Ldi (1, Isa.ctrl_enable lor Isa.ctrl_exec);
        (* 8 *) Isa.Mpuw (Isa.fld_ctrl1, 1);
        (* 9 *) Isa.Retu;
        (* user from 10 *)
        (* 10 *) Isa.Ldi (2, 9);
        (* 11 *) Isa.Mpuw (Isa.fld_base0, 2);  (* priv viol; handler skips *)
        (* 12 *) Isa.Ldi (3, 1);
        (* 13 *) Isa.Halt;
      ]
  in
  Alcotest.(check int) "resumed after offender" 1 st.Arch.regs.(3);
  Alcotest.(check int) "mpu base0 untouched" 0 st.Arch.mpu_base.(0);
  Alcotest.(check int) "mode user after trapret" 0 st.Arch.mode

(* ------------------------------------------------------------------ *)
(* Benchmarks on the RTL system *)

let test_golden_illegal_write () =
  let sys = System.create Programs.illegal_write in
  let viol_cycle = ref (-1) in
  let steps = ref 0 in
  while (not (System.halted sys)) && !steps < Programs.illegal_write.Programs.max_cycles do
    let outcome = System.step sys in
    if outcome.Model.data_viol && !viol_cycle < 0 then viol_cycle := System.cycle sys - 1;
    incr steps
  done;
  Alcotest.(check bool) "halted" true (System.halted sys);
  Alcotest.(check bool) "violation detected" true (!viol_cycle > 0);
  Alcotest.(check int) "secret intact" Programs.secret_value (System.dmem sys).(Programs.secret_addr);
  Alcotest.(check int) "cause data" Isa.cause_data (System.state sys).Arch.cause

let test_golden_illegal_read () =
  let sys = System.create Programs.illegal_read in
  ignore (System.run sys ~max_cycles:Programs.illegal_read.Programs.max_cycles);
  Alcotest.(check bool) "halted" true (System.halted sys);
  Alcotest.(check int) "nothing leaked" 0 (System.dmem sys).(Programs.out_addr)

let test_golden_synthetic_runs_long () =
  let sys = System.create Programs.synthetic in
  let viols = ref 0 in
  let steps = ref 0 in
  while (not (System.halted sys)) && !steps < Programs.synthetic.Programs.max_cycles do
    let o = System.step sys in
    if o.Model.data_viol then incr viols;
    incr steps
  done;
  Alcotest.(check bool) "halted" true (System.halted sys);
  Alcotest.(check bool) "many violations pulsed" true (!viols > 10)

let test_checkpoint_restore_replays () =
  let sys = System.create Programs.illegal_write in
  System.run_to_cycle sys 37;
  let cp = System.checkpoint sys in
  ignore (System.run sys ~max_cycles:400);
  let final1 = (Arch.copy (System.state sys), Array.copy (System.dmem sys)) in
  System.restore sys cp;
  Alcotest.(check int) "cycle restored" 37 (System.cycle sys);
  ignore (System.run sys ~max_cycles:400);
  let final2 = (Arch.copy (System.state sys), Array.copy (System.dmem sys)) in
  Alcotest.(check bool) "same arch" true (Arch.equal (fst final1) (fst final2));
  Alcotest.(check bool) "same dmem" true (snd final1 = snd final2)

let test_golden_illegal_exec () =
  let sys = System.create Programs.illegal_exec in
  let viol = ref false in
  let steps = ref 0 in
  while (not (System.halted sys)) && !steps < Programs.illegal_exec.Programs.max_cycles do
    let o = System.step sys in
    if o.Model.instr_viol then viol := true;
    incr steps
  done;
  Alcotest.(check bool) "halted" true (System.halted sys);
  Alcotest.(check bool) "fetch violation raised" true !viol;
  Alcotest.(check int) "service routine never ran" 0 (System.dmem sys).(Programs.out_addr);
  Alcotest.(check int) "cause instr" Isa.cause_instr (System.state sys).Arch.cause

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_structure () =
  let trace = Fmc_cpu.Trace.record Programs.illegal_write ~cycles:400 in
  Alcotest.(check bool) "stops at halt" true (List.length trace < 400);
  (* Cycles are consecutive from 0. *)
  List.iteri
    (fun i (e : Fmc_cpu.Trace.entry) -> Alcotest.(check int) "consecutive" i e.Fmc_cpu.Trace.cycle)
    trace;
  (* The run starts privileged, drops to user, and raises exactly one data
     violation — on the illegal store. *)
  let first = List.hd trace in
  Alcotest.(check int) "starts privileged" 1 first.Fmc_cpu.Trace.mode;
  let viols = List.filter (fun e -> e.Fmc_cpu.Trace.data_viol) trace in
  (match viols with
  | [ v ] -> (
      Alcotest.(check int) "viol in user mode" 0 v.Fmc_cpu.Trace.mode;
      match v.Fmc_cpu.Trace.instr with
      | Some (Isa.St _) -> ()
      | i ->
          Alcotest.failf "expected store, got %s"
            (match i with Some i -> Isa.to_string i | None -> "halted"))
  | l -> Alcotest.failf "expected exactly one data violation, got %d" (List.length l));
  (* Rendering works and mentions the violation. *)
  let text = Format.asprintf "%a" Fmc_cpu.Trace.pp trace in
  Alcotest.(check bool) "pp mentions violation" true
    (let needle = "!DATA-VIOL" in
     let rec go i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || go (i + 1))
     in
     go 0)

let test_trace_record_from () =
  let sys = System.create Programs.illegal_write in
  System.run_to_cycle sys 50;
  let trace = Fmc_cpu.Trace.record_from sys ~cycles:10 in
  Alcotest.(check int) "ten entries" 10 (List.length trace);
  Alcotest.(check int) "starts at 50" 50 (List.hd trace).Fmc_cpu.Trace.cycle

(* ------------------------------------------------------------------ *)
(* RTL vs gate co-simulation *)

let cosim_program (program : Programs.t) cycles =
  let sys = System.create program in
  let c = Lazy.force circuit in
  let net = Netsys.create c program in
  for cyc = 0 to cycles - 1 do
    (* Compare architectural state before each cycle. *)
    let gate_arch = Netsys.read_arch net in
    if not (Arch.equal (System.state sys) gate_arch) then begin
      let diffs = Arch.diff (System.state sys) gate_arch in
      Alcotest.failf "cycle %d: state diverged on %s" cyc (String.concat "," diffs)
    end;
    ignore (System.step sys);
    Netsys.step net
  done;
  (* Memories agree at the end. *)
  Alcotest.(check bool) "dmem equal" true (System.dmem sys = Netsys.dmem net)

let test_cosim_illegal_write () = cosim_program Programs.illegal_write 250
let test_cosim_illegal_read () = cosim_program Programs.illegal_read 250
let test_cosim_illegal_exec () = cosim_program Programs.illegal_exec 250
let test_cosim_synthetic () = cosim_program Programs.synthetic 1000

(* Random-program co-simulation: the strongest equivalence evidence. *)
let cosim_random_prop =
  QCheck.Test.make ~name:"random programs: model = netlist for 120 cycles" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* Random but mostly-sane program: random instructions with a bias
         toward short branches; r0 left alone so loops terminate often.
         Whatever it does, both levels must agree. *)
      let n = 48 in
      let imem =
        Array.init n (fun _ ->
            let r () = Rng.int rng 8 in
            let instr =
              match Rng.int rng 14 with
              | 0 -> Isa.Ldi (r (), Rng.int rng 256)
              | 1 -> Isa.Lui (r (), Rng.int rng 256)
              | 2 -> Isa.Add (r (), r (), r ())
              | 3 -> Isa.Sub (r (), r (), r ())
              | 4 -> Isa.And_ (r (), r (), r ())
              | 5 -> Isa.Or_ (r (), r (), r ())
              | 6 -> Isa.Xor_ (r (), r (), r ())
              | 7 -> Isa.Shl (r (), r (), r ())
              | 8 -> Isa.Shr (r (), r (), r ())
              | 9 -> Isa.Ld (r (), r (), Rng.int rng 64)
              | 10 -> Isa.St (r (), r (), Rng.int rng 64)
              | 11 -> Isa.Brnz (r (), Rng.int_in rng (-4) 4)
              | 12 -> Isa.Mpuw (Rng.int rng 6, r ())
              | _ -> Isa.Retu
            in
            Isa.encode instr)
      in
      let program =
        {
          Programs.name = "random";
          imem;
          dmem_size = 256;
          dmem_init = List.init 16 (fun i -> (i * 3, (i * 917) land 0xffff));
          observable = [];
          max_cycles = 120;
          attack = None;
          user_code_range = None;
        }
      in
      let sys = System.create program in
      let c = Lazy.force circuit in
      let net = Netsys.create c program in
      let ok = ref true in
      for _ = 1 to 120 do
        if !ok then begin
          ignore (System.step sys);
          Netsys.step net;
          if not (Arch.equal (System.state sys) (Netsys.read_arch net)) then ok := false
        end
      done;
      !ok && System.dmem sys = Netsys.dmem net)

let test_netsys_responding_signal () =
  (* The data_viol output must pulse at gate level exactly when the model
     reports it. *)
  let program = Programs.illegal_write in
  let sys = System.create program in
  let c = Lazy.force circuit in
  let net = Netsys.create c program in
  let model_viol = ref [] and gate_viol = ref [] in
  for cyc = 0 to 199 do
    Netsys.settle net;
    if Netsys.read_output net "data_viol" = 1 then gate_viol := cyc :: !gate_viol;
    let o = System.step sys in
    if o.Model.data_viol then model_viol := cyc :: !model_viol;
    Netsys.step net
  done;
  Alcotest.(check bool) "violation seen" true (!model_viol <> []);
  Alcotest.(check (list int)) "same cycles" !model_viol !gate_viol

(* Netsys.settle, Netsys.resettle and the masking certificates resolve
   the data address before the read data; a circuit whose address reads
   the read data is refused up front, naming the offending bit. *)
let test_netsys_rejects_addr_from_rdata () =
  let module B = Fmc_netlist.Builder in
  let module K = Fmc_netlist.Kind in
  let b = B.create () in
  let bus name = Array.init 2 (fun i -> B.add_input b ~name:(Printf.sprintf "%s%d" name i)) in
  let instr = bus "instr" and rdata = bus "rdata" in
  let addr = [| B.add_gate b K.Buf [| instr.(0) |]; B.add_gate b K.Buf [| rdata.(1) |] |] in
  Array.iteri (fun i n -> B.set_output b ~name:(Printf.sprintf "addr%d" i) n) addr;
  let net = Fmc_netlist.Netlist.of_builder b in
  let other = addr.(0) in
  let c =
    {
      Circuit.net;
      instr;
      dmem_rdata = rdata;
      pc = [||];
      dmem_addr = addr;
      dmem_wdata = [| other |];
      dmem_we = other;
      dmem_re = other;
      halted = other;
      data_viol = other;
      instr_viol = other;
      priv_viol = other;
    }
  in
  Alcotest.check_raises "addr = buf(rdata) rejected"
    (Invalid_argument "Netsys.create: dmem_addr depends combinationally on dmem_rdata[1]")
    (fun () -> ignore (Netsys.create c Programs.illegal_write));
  ignore (Netsys.create (Lazy.force circuit) Programs.illegal_write)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cpu"
    [
      ( "arch",
        [
          Alcotest.test_case "group get/set roundtrip" `Quick test_arch_groups_roundtrip;
          Alcotest.test_case "reset values" `Quick test_arch_reset_values;
          Alcotest.test_case "total bits" `Quick test_arch_total_bits;
          Alcotest.test_case "diff" `Quick test_arch_diff;
          Alcotest.test_case "mpu region semantics" `Quick test_mpu_allows;
        ] );
      ( "model",
        [
          Alcotest.test_case "alu" `Quick test_model_alu;
          Alcotest.test_case "16-bit wraparound" `Quick test_model_wraparound;
          Alcotest.test_case "lui keeps low byte" `Quick test_model_lui_keeps_low;
          Alcotest.test_case "shifts" `Quick test_model_shifts;
          Alcotest.test_case "load/store" `Quick test_model_load_store;
          Alcotest.test_case "branch loop" `Quick test_model_branches;
          Alcotest.test_case "jalr" `Quick test_model_jalr;
          Alcotest.test_case "jalr rd=ra" `Quick test_model_jalr_same_reg;
          Alcotest.test_case "halt freezes" `Quick test_model_halt_freezes;
          Alcotest.test_case "mpuw + privilege trap" `Quick test_model_mpuw_and_priv_trap;
          Alcotest.test_case "data violation" `Quick test_model_data_violation;
          Alcotest.test_case "instruction violation" `Quick test_model_instr_violation;
          Alcotest.test_case "trapret skips offender" `Quick test_model_trapret;
        ] );
      ( "system",
        [
          Alcotest.test_case "golden illegal-write" `Quick test_golden_illegal_write;
          Alcotest.test_case "golden illegal-read" `Quick test_golden_illegal_read;
          Alcotest.test_case "golden synthetic" `Quick test_golden_synthetic_runs_long;
          Alcotest.test_case "checkpoint restore replays" `Quick test_checkpoint_restore_replays;
          Alcotest.test_case "golden illegal-exec" `Quick test_golden_illegal_exec;
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "trace record_from" `Quick test_trace_record_from;
        ] );
      ( "cosim",
        [
          Alcotest.test_case "illegal-write benchmark" `Slow test_cosim_illegal_write;
          Alcotest.test_case "illegal-read benchmark" `Slow test_cosim_illegal_read;
          Alcotest.test_case "illegal-exec benchmark" `Slow test_cosim_illegal_exec;
          Alcotest.test_case "synthetic benchmark" `Slow test_cosim_synthetic;
          Alcotest.test_case "responding signal alignment" `Slow test_netsys_responding_signal;
          Alcotest.test_case "address must not read the read data" `Quick
            test_netsys_rejects_addr_from_rdata;
        ] );
      ("cosim-props", q [ cosim_random_prop ]);
    ]
