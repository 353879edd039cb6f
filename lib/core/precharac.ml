module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module Unroll = Fmc_netlist.Unroll
module Circuit = Fmc_cpu.Circuit
module Netsys = Fmc_cpu.Netsys
module Programs = Fmc_isa.Programs
module Bitvec = Fmc_prelude.Bitvec

type t = {
  circuit : Circuit.t;
  unroll : Unroll.t;
  sigrec : Sigrec.t;
  lifetimes : Lifetime.t;
  rs_nodes : N.node list;
  gate_lifetime : float array;
  depth : int;
}

let compute_gate_lifetimes net lifetimes =
  let n = N.num_nodes net in
  let l = Array.make n 0. in
  Array.iter (fun d -> l.(d) <- Lifetime.lifetime lifetimes d) (N.dffs net);
  (* Reverse topological sweep: a gate inherits the max over its fan-outs —
     the flip-flops its glitch could reach within the cycle. *)
  let gates = N.gates net in
  for i = Array.length gates - 1 downto 0 do
    let g = gates.(i) in
    let best = ref 0. in
    Array.iter
      (fun f ->
        match N.kind net f with
        | K.Dff _ | K.Gate _ -> if l.(f) > !best then best := l.(f)
        | K.Input | K.Const _ -> ())
      (N.fanouts net g);
    l.(g) <- !best
  done;
  l

let run ?(depth = 50) ?(fanout_depth = 3) ?(sig_cycles = 600) ?lifetime_config circuit ~rng =
  let net = circuit.Circuit.net in
  let rs_nodes = Circuit.responding_signals circuit in
  let unroll = Unroll.compute net ~roots:rs_nodes ~depth ~fanout_depth in
  (* Step 2: signatures over the synthetic benchmark at gate level. *)
  let golden = Golden.run Programs.synthetic in
  let cycles = max 2 (min sig_cycles (Golden.halt_cycle golden)) in
  let netsys = Netsys.create circuit Programs.synthetic in
  let sigrec = Sigrec.record netsys ~cycles in
  (* Step 3: lifetime / contamination on every cone register. *)
  let cone_regs = Unroll.all_registers unroll in
  let lifetimes =
    Lifetime.characterize ?config:lifetime_config net ~golden ~dffs:cone_regs ~rng
  in
  let gate_lifetime = compute_gate_lifetimes net lifetimes in
  { circuit; unroll; sigrec; lifetimes; rs_nodes; gate_lifetime; depth }

let circuit t = t.circuit
let unroll t = t.unroll
let lifetimes t = t.lifetimes
let responding_signals t = t.rs_nodes
let depth t = t.depth

let level t i =
  if i >= 0 && i > t.depth then { Unroll.gates = [||]; registers = [||] }
  else
    try Unroll.level_at t.unroll i
    with Invalid_argument _ -> { Unroll.gates = [||]; registers = [||] }

(* [Bitvec.correlation] against every responding signal, with each
   signal's signature shifted once for all the nodes scored at [shift]. *)
let correlation_kernel t ~shift =
  let shifted =
    List.map
      (fun rs ->
        let ss = Sigrec.switches t.sigrec rs in
        if shift >= 0 then Bitvec.shift_towards_zero ss shift
        else Bitvec.shift_away_from_zero ss (-shift))
      t.rs_nodes
  in
  fun node ->
    let ss = Sigrec.switches t.sigrec node in
    let denom = Bitvec.popcount ss in
    if denom = 0 then 0.
    else
      List.fold_left
        (fun acc rs ->
          Float.max acc (float_of_int (Bitvec.popcount_and ss rs) /. float_of_int denom))
        0. shifted

let correlation t node ~shift = correlation_kernel t ~shift node

let gate_lifetime t node = t.gate_lifetime.(node)

let memory_type t node = Lifetime.memory_type t.lifetimes node

let memory_type_registers t =
  Array.of_list
    (List.filter (memory_type t) (Array.to_list (Unroll.all_registers t.unroll)))

let cone_registers t = Unroll.all_registers t.unroll
