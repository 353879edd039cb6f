module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module Rng = Fmc_prelude.Rng
module Worklist = Fmc_netlist.Worklist
module Placement = Fmc_layout.Placement
module Circuit = Fmc_cpu.Circuit
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics
module Engine = Fmc.Engine
module Golden = Fmc.Golden
module Sampler = Fmc.Sampler

type stats = { mutable checked : int; mutable pruned : int; mutable certificates : int }

type inst = {
  m_checked : Metrics.counter;
  m_pruned : Metrics.counter;
  m_certs : Metrics.counter;
  m_ratio : Metrics.gauge;
}

(* The abstract state lives in a byte per node — [b_false]/[b_true] are
   definite (equal to golden; the same bytes as the engine's
   [Engine.golden_settled] images), [b_unknown] is X. Bytes keep the per-sample
   state reset a plain memmove (a boxed option array pays a write barrier
   per element); the option view required by the shared
   {!Fmc_netlist.Kind.eval3} kernel is reconstructed at the evaluation
   boundary from shared constants, so no second evaluation semantics
   exists anywhere in the pruner. *)
let b_false = '\000'
let b_true = '\001'
let b_unknown = '\002'

let some_false = Some false
let some_true = Some true

let decode c = if c = b_false then some_false else if c = b_true then some_true else None

type t = {
  engine : Engine.t;
  net : N.t;
  circuit : Circuit.t;
  pindex : Placement.index;
  target_cycle : int;
  pc_members : N.node array;
  sink : int array;
      (* bit 1: flip-flop D input or the memory write-enable; bit 2:
         write-port bus bit (address/data), a sink only on golden-write
         cycles. An X reaching a live sink refutes the certificate. *)
  values : Bytes.t;  (* scratch abstract state *)
  wl : Worklist.t;
  stats : stats;
  inst : inst option;
}

let create ?(obs = Obs.disabled) engine =
  let circuit = Engine.circuit engine in
  let net = circuit.Circuit.net in
  let inst =
    match obs.Obs.metrics with
    | None -> None
    | Some reg ->
        Some
          {
            m_checked =
              Metrics.counter reg ~help:"samples tested against masking certificates"
                "fmc_sva_samples_checked_total";
            m_pruned =
              Metrics.counter reg ~help:"samples pruned: tallied analytically as masked"
                "fmc_sva_samples_pruned_total";
            m_certs =
              Metrics.counter reg ~help:"per-sample joint masking certificates computed"
                "fmc_sva_certificates_total";
            m_ratio =
              Metrics.gauge reg ~help:"fraction of checked samples pruned"
                "fmc_sva_prune_ratio";
          }
  in
  let n = N.num_nodes net in
  let sink = Array.make n 0 in
  Array.iter (fun f -> sink.(N.dff_d net f) <- sink.(N.dff_d net f) lor 1) (N.dffs net);
  sink.(circuit.Circuit.dmem_we) <- sink.(circuit.Circuit.dmem_we) lor 1;
  Array.iter (fun b -> sink.(b) <- sink.(b) lor 2) circuit.Circuit.dmem_addr;
  Array.iter (fun b -> sink.(b) <- sink.(b) lor 2) circuit.Circuit.dmem_wdata;
  {
    engine;
    net;
    circuit;
    pindex = Placement.index (Engine.placement engine);
    target_cycle = Golden.target_cycle (Engine.golden engine);
    pc_members = N.register_group net "pc";
    sink;
    values = Bytes.make n b_false;
    wl = Worklist.create net;
    stats = { checked = 0; pruned = 0; certificates = 0 };
    inst;
  }

let stats t = t.stats

let prune_ratio t =
  if t.stats.checked = 0 then 0.
  else float_of_int t.stats.pruned /. float_of_int t.stats.checked

let any_unknown values nodes = Array.exists (fun n -> Bytes.get values n = b_unknown) nodes

exception Refuted

(* Gate-evaluation budget per certificate. Maskable samples have small
   X-fronts (the unknowns die at controlling values within a few levels);
   refutations, by contrast, can walk almost the whole fan-out cone
   before the X reaches a D input. Giving up at the budget and reporting
   "not covered" is sound (the sample is simply simulated) and
   deterministic (the walk order is a function of the struck set alone),
   and bounds the pruner's per-sample cost far below one simulation. *)
let work_budget = 160

(* Joint abstract evaluation of one injection cycle: golden values
   everywhere, X at every struck cell. Rather than sweeping the whole
   netlist, the X-front is chased through the struck cells' fan-out cone
   with a worklist ordered by logic level (sound because the
   combinational part is acyclic and [N.level] respects fan-in order) —
   for maskable samples the front dies out after a handful of gates, and
   for the rest the first X that reaches a live sink (a flip-flop D
   input, the memory write-enable, or the write-port buses on a
   golden-write cycle) refutes the certificate immediately.

   The processor's two input buses are state-dependent ([instr =
   imem[pc]], [dmem_rdata = dmem[dmem_addr]]): an unknown stored pc bit
   poisons the fetched word up front (register values never change during
   the sweep), and an unknown address bit poisons the read data, which
   re-enters the worklist. The address bus cannot itself depend on
   [dmem_rdata] ([Netsys.create] rejects such a circuit), so one widening
   round is a fixpoint.

   Covered iff no live sink was ever tainted: every flip-flop D and the
   memory write port are then definite and equal to golden, so the
   latched state and memory provably equal the golden run at [te + 1] and
   the engine would classify the sample as exactly [Masked]. *)
let compute t ~te ~(cells : N.node array) =
  let net = t.net in
  let gold = Engine.golden_settled t.engine te in
  let values = t.values in
  Bytes.blit gold 0 values 0 (Bytes.length gold);
  Worklist.reset t.wl;
  let gold_we = Bytes.get gold t.circuit.Circuit.dmem_we = b_true in
  let taint n =
    if Bytes.get values n <> b_unknown then begin
      let s = t.sink.(n) in
      if s land 1 <> 0 || (gold_we && s land 2 <> 0) then raise Refuted;
      Bytes.set values n b_unknown;
      (* Only combinational gates are evaluated; register/output fanouts of
         a tainted node are judged through the sink flags alone. *)
      Worklist.push_fanouts t.wl n
    end
  in
  let work = ref 0 in
  let rec drain () =
    let g = Worklist.pop t.wl in
    if g >= 0 then begin
      (if Bytes.get values g <> b_unknown then
         match N.kind net g with
         | K.Gate kind ->
             incr work;
             if !work > work_budget then raise Refuted;
             let fi = N.fanins net g in
             let vs = Array.map (fun f -> decode (Bytes.get values f)) fi in
             if K.eval3 kind vs = None then taint g
         | _ -> ());
      drain ()
    end
  in
  let struck_any = ref false in
  let covered =
    try
      Array.iter
        (fun c ->
          match N.kind net c with
          | K.Dff _ | K.Gate _ ->
              (* A struck gate carries an injected pulse: X regardless of its
                 inputs. [taint] pins it to X permanently, which subsumes the
                 forced-output treatment. Input/const strikes are ignored,
                 matching the engine's strike partition. *)
              struck_any := true;
              taint c
          | K.Input | K.Const _ -> ())
        cells;
      if !struck_any then begin
        (* The fetched word indexes imem by the pc register group's stored
           bits (Netsys.settle), so any struck pc bit poisons instr. *)
        if any_unknown values t.pc_members then Array.iter taint t.circuit.Circuit.instr;
        drain ();
        if any_unknown values t.circuit.Circuit.dmem_addr then begin
          (* New round so gates settled definite in the first round are
             re-enqueued when the widened read data re-taints them. *)
          Worklist.rearm t.wl;
          Array.iter taint t.circuit.Circuit.dmem_rdata;
          drain ()
        end
      end;
      true
    with Refuted -> false
  in
  covered

let covered t (sample : Sampler.sample) =
  let te = t.target_cycle - sample.Sampler.t in
  te < 1 (* the engine short-circuits to Masked *)
  || compute t ~te
       ~cells:
         (Placement.within_indexed t.pindex ~center:sample.Sampler.center
            ~radius:sample.Sampler.radius)

let note t (sample : Sampler.sample) ~covered =
  let certified = t.target_cycle - sample.Sampler.t >= 1 in
  t.stats.checked <- t.stats.checked + 1;
  if certified then t.stats.certificates <- t.stats.certificates + 1;
  if covered then t.stats.pruned <- t.stats.pruned + 1;
  match t.inst with
  | None -> ()
  | Some i ->
      Metrics.inc i.m_checked;
      if certified then Metrics.inc i.m_certs;
      if covered then Metrics.inc i.m_pruned;
      Metrics.set i.m_ratio (prune_ratio t)

let check t sample =
  let v = covered t sample in
  note t sample ~covered:v;
  v

let prune t = { Fmc.Ssf.covered = covered t; note = note t }

let self_check ?(points = 50) ?(seed = 7) t =
  let dffs = N.dffs t.net in
  let draw_rng = Rng.create seed in
  let sim_rng = Rng.create (seed + 1) in
  let checked = ref 0 in
  let tried = ref 0 in
  let violations = ref [] in
  let max_tries = points * 200 in
  while !checked < points && !tried < max_tries do
    incr tried;
    let f = Rng.choose draw_rng dffs in
    let te = Rng.int_in draw_rng 1 (max 1 t.target_cycle) in
    let sample =
      {
        Sampler.t = t.target_cycle - te;
        center = f;
        radius = 0.;
        width = 80.;
        time_frac = 0.3;
        weight = 1.;
        stratum = Sampler.All;
      }
    in
    if covered t sample then begin
      incr checked;
      let r = Engine.run_sample t.engine sim_rng sample in
      if r.Engine.outcome <> Engine.Masked then violations := (f, te) :: !violations
    end
  done;
  (!checked, List.rev !violations)
