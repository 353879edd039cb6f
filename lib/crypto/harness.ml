module Cycle_sim = Fmc_gatesim.Cycle_sim
module Transient = Fmc_gatesim.Transient
module N = Fmc_netlist.Netlist

type t = { circuit : Core_circuit.t; sim : Cycle_sim.t; transient : Transient.scratch }

let create circuit =
  let net = circuit.Core_circuit.net in
  { circuit; sim = Cycle_sim.create net; transient = Transient.scratch net }

let circuit t = t.circuit
let sim t = t.sim

let drive t ~load ~pt ~key =
  Cycle_sim.set_input t.sim t.circuit.Core_circuit.load load;
  Cycle_sim.set_input_bus t.sim t.circuit.Core_circuit.pt pt;
  Cycle_sim.set_input_bus t.sim t.circuit.Core_circuit.key_in key

let encrypt t ~key pt =
  Cycle_sim.reset t.sim;
  drive t ~load:true ~pt ~key;
  Cycle_sim.eval_comb t.sim;
  Cycle_sim.latch t.sim;
  let budget = Cipher.rounds + 2 in
  let cycle = ref 0 in
  while (not (Cycle_sim.read_group t.sim "done" = 1)) && !cycle < budget do
    drive t ~load:false ~pt:0 ~key:0;
    Cycle_sim.eval_comb t.sim;
    Cycle_sim.latch t.sim;
    incr cycle
  done;
  Cycle_sim.read_group t.sim "cstate"

let encrypt_with_strikes t ~key ~plaintext ~cycle ~strikes config =
  Cycle_sim.reset t.sim;
  let budget = (2 * Cipher.rounds) + 4 in
  let c = ref 0 in
  let finished = ref false in
  while (not !finished) && !c < budget do
    drive t ~load:(!c = 0) ~pt:plaintext ~key;
    if !c = cycle then begin
      (* Direct flip-flop strikes flip stored state before the cycle
         settles; combinational strikes become transients. *)
      let direct, comb =
        List.partition
          (fun s ->
            match N.kind t.circuit.Core_circuit.net s.Transient.node with
            | Fmc_netlist.Kind.Dff _ -> true
            | _ -> false)
          strikes
      in
      List.iter (fun s -> Cycle_sim.flip t.sim s.Transient.node) direct;
      Cycle_sim.eval_comb t.sim;
      let result = Transient.inject ~scratch:t.transient t.sim config ~strikes:comb in
      Cycle_sim.latch t.sim;
      Array.iter (fun d -> Cycle_sim.flip t.sim d) result.Transient.latched
    end
    else begin
      Cycle_sim.eval_comb t.sim;
      Cycle_sim.latch t.sim
    end;
    incr c;
    if Cycle_sim.value t.sim t.circuit.Core_circuit.done_ then finished := true
  done;
  Cycle_sim.read_group t.sim "cstate"
