module Netsys = Fmc_cpu.Netsys
module Cycle_sim = Fmc_gatesim.Cycle_sim
module N = Fmc_netlist.Netlist
module Bitvec = Fmc_prelude.Bitvec

type t = { cycles : int; switches : Bitvec.t array }

let record net ~cycles =
  if cycles <= 0 then invalid_arg "Sigrec.record: cycles must be positive";
  let sim = Netsys.sim net in
  let netlist = Cycle_sim.netlist sim in
  let n = N.num_nodes netlist in
  let switches = Array.init n (fun _ -> Bitvec.create cycles) in
  let prev = Array.make n false in
  for c = 0 to cycles - 1 do
    Netsys.settle net;
    for node = 0 to n - 1 do
      let v = Cycle_sim.value sim node in
      if c > 0 && v <> prev.(node) then Bitvec.set switches.(node) c true;
      prev.(node) <- v
    done;
    (* Commit memory effects and clock, like Netsys.step after settle. *)
    if Cycle_sim.value sim (Netsys.circuit net).Fmc_cpu.Circuit.dmem_we then begin
      let addr = Cycle_sim.read_bus sim (Netsys.circuit net).Fmc_cpu.Circuit.dmem_addr in
      let dmem = Netsys.dmem net in
      dmem.(addr land (Array.length dmem - 1)) <-
        Cycle_sim.read_bus sim (Netsys.circuit net).Fmc_cpu.Circuit.dmem_wdata
    end;
    Cycle_sim.latch sim
  done;
  { cycles; switches }

let cycles t = t.cycles
let switches t node = t.switches.(node)

let activity t node = float_of_int (Bitvec.popcount t.switches.(node)) /. float_of_int t.cycles
