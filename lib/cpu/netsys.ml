module Cycle_sim = Fmc_gatesim.Cycle_sim
module Worklist = Fmc_netlist.Worklist

type t = {
  circuit : Circuit.t;
  sim : Cycle_sim.t;
  wl : Worklist.t;  (* resettle's scratch *)
  groups : (string * Fmc_netlist.Netlist.node array) list;  (* Arch.groups' flip-flops *)
  imem : int array;
  dmem : int array;
  mutable cycle : int;
}

(* [settle] resolves the data address before it looks up the read data,
   and [resettle] and the masking certificates' input widening rely on the
   same order: the address must not depend combinationally on the read
   data. *)
let check_addr_before_rdata (circuit : Circuit.t) =
  let cone = Fmc_netlist.Cone.fanin circuit.Circuit.net ~roots:(Array.to_list circuit.Circuit.dmem_addr) in
  Array.iteri
    (fun bit node ->
      if Array.mem node cone.Fmc_netlist.Cone.inputs then
        invalid_arg
          (Printf.sprintf "Netsys.create: dmem_addr depends combinationally on dmem_rdata[%d]" bit))
    circuit.Circuit.dmem_rdata

let create circuit (program : Fmc_isa.Programs.t) =
  System.validate_dmem_size ~who:"Netsys.create" program.Fmc_isa.Programs.dmem_size;
  check_addr_before_rdata circuit;
  let net = circuit.Circuit.net in
  let dmem = Array.make program.Fmc_isa.Programs.dmem_size 0 in
  List.iter (fun (a, v) -> dmem.(a) <- v land 0xffff) program.Fmc_isa.Programs.dmem_init;
  {
    circuit;
    sim = Cycle_sim.create net;
    wl = Worklist.create net;
    groups = List.map (fun (name, _) -> (name, Fmc_netlist.Netlist.register_group net name)) Arch.groups;
    imem = program.Fmc_isa.Programs.imem;
    dmem;
    cycle = 0;
  }

let circuit t = t.circuit
let sim t = t.sim
let dmem t = t.dmem
let cycle t = t.cycle

let halted t = Cycle_sim.read_group t.sim "halted" = 1

let load_arch t st =
  List.iter (fun (name, _) -> Cycle_sim.write_group t.sim name (Arch.get_group st name)) Arch.groups

let read_arch t =
  let st = Arch.create () in
  List.iter (fun (name, _) -> Arch.set_group st name (Cycle_sim.read_group t.sim name)) Arch.groups;
  st

let dmask t addr = addr land (Array.length t.dmem - 1)

let fetch t =
  let pc = Cycle_sim.read_group t.sim "pc" in
  if pc >= 0 && pc < Array.length t.imem then t.imem.(pc) else 0

let settle t =
  Cycle_sim.set_input_bus t.sim t.circuit.Circuit.instr (fetch t);
  (* First pass resolves the data address (which never depends on rdata);
     second pass folds the memory answer back in. *)
  Cycle_sim.set_input_bus t.sim t.circuit.Circuit.dmem_rdata 0;
  Cycle_sim.eval_comb t.sim;
  let addr = Cycle_sim.read_bus t.sim t.circuit.Circuit.dmem_addr in
  Cycle_sim.set_input_bus t.sim t.circuit.Circuit.dmem_rdata t.dmem.(dmask t addr);
  Cycle_sim.eval_comb t.sim

let resettle t st ~dmem =
  let sim = t.sim and wl = t.wl in
  Worklist.reset wl;
  List.iter
    (fun (name, dffs) ->
      let v = Arch.get_group st name in
      Array.iteri (fun bit d -> Cycle_sim.drive sim wl d ((v lsr bit) land 1 = 1)) dffs)
    t.groups;
  Cycle_sim.drive_bus sim wl t.circuit.Circuit.instr (fetch t);
  Cycle_sim.propagate sim wl;
  (* The address is final now (it does not depend on the read data), so
     one read-data round settles everything. *)
  Worklist.reset wl;
  let addr = Cycle_sim.read_bus sim t.circuit.Circuit.dmem_addr in
  Cycle_sim.drive_bus sim wl t.circuit.Circuit.dmem_rdata dmem.(addr land (Array.length dmem - 1));
  Cycle_sim.propagate sim wl

let step t =
  settle t;
  if Cycle_sim.value t.sim t.circuit.Circuit.dmem_we then begin
    let addr = Cycle_sim.read_bus t.sim t.circuit.Circuit.dmem_addr in
    t.dmem.(dmask t addr) <- Cycle_sim.read_bus t.sim t.circuit.Circuit.dmem_wdata
  end;
  Cycle_sim.latch t.sim;
  t.cycle <- t.cycle + 1

let read_output t name =
  if Cycle_sim.value t.sim (Fmc_netlist.Netlist.output t.circuit.Circuit.net name) then 1 else 0
