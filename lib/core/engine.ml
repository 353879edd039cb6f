module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module Placement = Fmc_layout.Placement
module Transient = Fmc_gatesim.Transient
module Glitch = Fmc_gatesim.Glitch
module Cycle_sim = Fmc_gatesim.Cycle_sim
module Circuit = Fmc_cpu.Circuit
module Netsys = Fmc_cpu.Netsys
module System = Fmc_cpu.System
module Arch = Fmc_cpu.Arch
module Programs = Fmc_isa.Programs
module Rng = Fmc_prelude.Rng
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics

(* Pre-resolved metric cells for the engine's phase counters (rebuilt by
   [set_obs]; hot paths touch plain record fields only). *)
type einst = {
  e_restores : Metrics.counter;
  e_rtl_cycles : Metrics.counter;
  e_gate_cycles : Metrics.counter;
  e_sample_us : Metrics.histogram;
}

let make_einst (obs : Obs.t) =
  match obs.Obs.metrics with
  | None -> None
  | Some reg ->
      Some
        {
          e_restores =
            Metrics.counter reg ~help:"golden checkpoint restores" "fmc_restores_total";
          e_rtl_cycles =
            Metrics.counter reg ~help:"RTL cycles stepped (replay windows and resumes)"
              "fmc_rtl_cycles_total";
          e_gate_cycles =
            Metrics.counter reg ~help:"gate-level injection cycles evaluated"
              "fmc_gate_cycles_total";
          e_sample_us =
            Metrics.histogram reg ~help:"end-to-end run_sample latency (us)"
              ~buckets:[| 10.; 30.; 100.; 300.; 1000.; 3000.; 10000.; 100000. |]
              "fmc_sample_duration_us";
        }

(* What the golden run does in cycle [c], filled on first use. *)
type entry = {
  arch : Arch.t;  (* golden architectural state at the start of [c] *)
  writes : (int * int) list;  (* (address, value) of the data words cycle [c] changes *)
  settled : Bytes.t;  (* fault-free settled node values, a Cycle_sim.save_values image *)
  fill_cycles : int;  (* RTL cycles the fill stepped: its restore's warm-up plus cycle [c] *)
  charged : bool Atomic.t;  (* the fill is counted (see [charge]) *)
}

(* The golden-cycle cache: one per engine family, shared by an engine and
   its replicas, so fills are locked. *)
type cache = { lock : Mutex.t; entries : (int, entry) Hashtbl.t }

type t = {
  precharac : Precharac.t;
  circuit : Circuit.t;
  placement : Placement.t;
  pindex : Placement.index;  (* same query results as [placement], O(disc area) *)
  tconfig : Transient.config;
  timing : Glitch.timing;
  program : Programs.t;
  golden : Golden.t;
  watch : N.node array;  (* the memory write port: dmem_we, dmem_addr, dmem_wdata *)
  cache : cache;  (* golden cycle -> entry, shared with the replicas *)
  (* Per-engine scratch, reused across samples and owned by one domain at
     a time: a replica has its own. *)
  netsys : Netsys.t;  (* simulator state rewritten per gate-level cycle *)
  transient : Transient.scratch;
  sys : System.t;  (* the restore target of run_sample and causal_flips *)
  trial : System.t;  (* causal_flips' leave-one-out trial *)
  (* [Some l] while the engine runs a block of samples whose records may
     be dropped: the uncharged cache entries it touched, newest first. *)
  mutable deferred : entry list option;
  mutable replicas : t array;
  (* Mutable so cached/shared engines (e.g. Experiments' per-benchmark
     cache) can be instrumented per run; [Ssf.estimate] installs its
     handle for the duration of a run and restores the previous one. *)
  mutable obs : Obs.t;
  mutable einst : einst option;
}

let obs t = t.obs

let set_obs t obs =
  t.obs <- obs;
  t.einst <- make_einst obs

let create ?(checkpoint_every = 16) ?(placement_seed = 1) ~precharac program =
  let circuit = Precharac.circuit precharac in
  let placement = Placement.place ~seed:placement_seed circuit.Circuit.net in
  let tconfig = Transient.default_config circuit.Circuit.net in
  let golden = Golden.run ~checkpoint_every program in
  let netsys = Netsys.create circuit program in
  let timing = Glitch.static_timing circuit.Circuit.net tconfig in
  {
    precharac;
    circuit;
    placement;
    pindex = Placement.index placement;
    tconfig;
    timing;
    program;
    golden;
    watch =
      Array.concat
        [ [| circuit.Circuit.dmem_we |]; circuit.Circuit.dmem_addr; circuit.Circuit.dmem_wdata ];
    cache = { lock = Mutex.create (); entries = Hashtbl.create 64 };
    netsys;
    transient = Transient.scratch circuit.Circuit.net;
    sys = System.create program;
    trial = System.create program;
    deferred = None;
    replicas = [||];
    obs = Obs.disabled;
    einst = None;
  }

let replicas t n =
  let have = Array.length t.replicas in
  if have < n then
    t.replicas <-
      Array.append t.replicas
        (Array.init (n - have) (fun _ ->
             {
               t with
               netsys = Netsys.create t.circuit t.program;
               transient = Transient.scratch t.circuit.Circuit.net;
               sys = System.create t.program;
               trial = System.create t.program;
               deferred = Some [];
               replicas = [||];
               obs = Obs.disabled;
               einst = None;
             }));
  Array.sub t.replicas 0 n

let golden t = t.golden
let placement t = t.placement
let precharac t = t.precharac
let circuit t = t.circuit
let transient_config t = t.tconfig
let program t = t.program

let restore t cycle =
  match t.einst with
  | None -> Golden.restore_at t.golden cycle
  | Some ei ->
      Metrics.inc ei.e_restores;
      Golden.restore_at ~on_step:(fun () -> Metrics.inc ei.e_rtl_cycles) t.golden cycle

(* [restore] into the engine's own system: the same counts, no fresh
   data memory (an array too large for the minor heap). *)
let restore_owned t cycle =
  (match t.einst with
  | None -> Golden.restore_into t.golden t.sys cycle
  | Some ei ->
      Metrics.inc ei.e_restores;
      Golden.restore_into ~on_step:(fun () -> Metrics.inc ei.e_rtl_cycles) t.golden t.sys cycle);
  t.sys

let fill t c =
  let stepped = ref 0 in
  let sys = Golden.restore_at ~on_step:(fun () -> incr stepped) t.golden c in
  let arch = Arch.copy (System.state sys) in
  let net_dmem = Netsys.dmem t.netsys in
  Array.blit (System.dmem sys) 0 net_dmem 0 (Array.length net_dmem);
  Netsys.load_arch t.netsys arch;
  Netsys.settle t.netsys;
  let settled = Cycle_sim.save_values (Netsys.sim t.netsys) in
  ignore (System.step sys);
  let writes = ref [] in
  Array.iteri (fun a v -> if v <> net_dmem.(a) then writes := (a, v) :: !writes) (System.dmem sys);
  { arch; writes = List.rev !writes; settled; fill_cycles = !stepped; charged = Atomic.make false }

(* A fill is counted (one restore, its RTL cycles) once, on the handle of
   the first sample that touches the entry; on a single domain that is
   the sample that filled it. *)
let charge t e =
  if Atomic.compare_and_set e.charged false true then
    match t.einst with
    | None -> ()
    | Some ei ->
        Metrics.inc ei.e_restores;
        Metrics.add ei.e_rtl_cycles (float_of_int e.fill_cycles)

let entry t c =
  let e =
    Mutex.protect t.cache.lock (fun () ->
        match Hashtbl.find_opt t.cache.entries c with
        | Some e -> e
        | None ->
            let e = fill t c in
            Hashtbl.add t.cache.entries c e;
            e)
  in
  if not (Atomic.get e.charged) then (
    match t.deferred with Some l -> t.deferred <- Some (e :: l) | None -> charge t e);
  e

type fills = entry list

let defer_fills t on = t.deferred <- (if on then Some [] else None)

let take_fills t =
  match t.deferred with
  | Some l ->
      t.deferred <- Some [];
      l
  | None -> []

let charge_fills t fills = List.iter (charge t) fills

let golden_settled t c = (entry t c).settled

type outcome = Masked | Analytical of bool | Resumed of bool

type run_result = {
  sample : Sampler.sample;
  te : int;
  outcome : outcome;
  success : bool;
  flips : (string * int) list;
  dmem_diffs : (int * int) list;
  direct : N.node array;
  latched : N.node array;
  struck_cells : int;
}

(* The settled values of [sys]'s cycle: the golden image, re-settled where
   [sys] differs from it. *)
let settle_at t sys =
  Cycle_sim.load_values (Netsys.sim t.netsys) (entry t (System.cycle sys)).settled;
  Netsys.resettle t.netsys (System.state sys) ~dmem:(System.dmem sys)

(* The external memory's write port is a synchronous sample point too:
   [hit n] says a transient on port node [n] overlaps the latch window, so
   the RAM captures the corrupted value exactly like a flip-flop would —
   the same-cycle channel a classic fault attack uses to commit a store
   whose violation flag was suppressed. Returns the (address, previous
   value) of the word written, if any. *)
let commit_write t sys ~hit =
  let sim = Netsys.sim t.netsys in
  let bit node = Cycle_sim.value sim node <> hit node in
  if not (bit t.circuit.Circuit.dmem_we) then None
  else begin
    let bus nodes =
      let v = ref 0 in
      Array.iteri (fun i node -> if bit node then v := !v lor (1 lsl i)) nodes;
      !v
    in
    let dmem = System.dmem sys in
    let addr = bus t.circuit.Circuit.dmem_addr land (Array.length dmem - 1) in
    let previous = dmem.(addr) in
    dmem.(addr) <- bus t.circuit.Circuit.dmem_wdata;
    Some (addr, previous)
  end

(* Write the latched next state back to RTL and count the cycle. *)
let writeback t sys =
  let sim = Netsys.sim t.netsys in
  let st = System.state sys in
  List.iter (fun (name, _) -> Arch.set_group st name (Cycle_sim.read_group sim name)) Arch.groups;
  System.advance_externally sys

(* [gate_level_cycle], also returning the memory write it committed. *)
let gate_cycle t sys (sample : Sampler.sample) gate_strikes =
  settle_at t sys;
  let time = sample.Sampler.time_frac *. t.tconfig.Transient.clock_period in
  let strikes =
    List.map (fun g -> { Transient.node = g; time; width = sample.Sampler.width }) gate_strikes
  in
  let sim = Netsys.sim t.netsys in
  let result = Transient.inject ~scratch:t.transient ~watch:t.watch sim t.tconfig ~strikes in
  let write =
    commit_write t sys ~hit:(fun node -> Array.mem node result.Transient.watched_hits)
  in
  (* The flip-flops latch fault-free values; the latched errors are the
     caller's to apply. *)
  Cycle_sim.latch sim;
  writeback t sys;
  (result.Transient.latched, write)

let gate_level_cycle t sys sample gate_strikes = fst (gate_cycle t sys sample gate_strikes)

let partition_disc ?(cell_filter = fun _ -> true) t center radius =
  let cells =
    Array.of_list
      (List.filter cell_filter
         (Array.to_list (Placement.within_indexed t.pindex ~center ~radius)))
  in
  let dffs = ref [] and gates = ref [] in
  Array.iter
    (fun c ->
      match N.kind t.circuit.Circuit.net c with
      | K.Dff _ -> dffs := c :: !dffs
      | K.Gate _ -> gates := c :: !gates
      | K.Input | K.Const _ -> ())
    cells;
  (List.rev !dffs, List.rev !gates, Array.length cells)

let apply_flip sys net dff =
  let group, bit = N.dff_group net dff in
  let st = System.state sys in
  Arch.set_group st group (Arch.get_group st group lxor (1 lsl bit))

let observables_differ t sys =
  System.observable_values sys <> Golden.final_observables t.golden

(* Exact register-error extraction: compare the post-injection-cycle state
   against the golden state at [te + 1] bit by bit. (A direct flip that the
   cycle's own register write overwrote is thereby correctly dropped.) *)
let state_bit_diffs faulty golden_state =
  List.concat_map
    (fun (name, _) ->
      let diff = Arch.get_group faulty name lxor Arch.get_group golden_state name in
      let rec bits b acc = if diff lsr b = 0 then List.rev acc
        else bits (b + 1) (if (diff lsr b) land 1 = 1 then (name, b) :: acc else acc)
      in
      bits 0 [])
    Arch.groups

(* Data words where [sys]'s memory differs from the golden run's at
   [te + cycles], ascending by address. [sys] held the golden memory at
   [te] and has since taken the faulty [writes] ((address, previous
   value), oldest first); in between, the golden run changed only the
   words its cache entries list. *)
let dmem_diffs t sys ~te ~cycles writes =
  let golden_writes = List.concat (List.init cycles (fun k -> (entry t (te + k)).writes)) in
  let dmem = System.dmem sys in
  let golden a =
    let base = match List.assoc_opt a writes with Some previous -> previous | None -> dmem.(a) in
    List.fold_left (fun v (a', w) -> if a' = a then w else v) base golden_writes
  in
  List.sort_uniq compare (List.map fst writes @ List.map fst golden_writes)
  |> List.filter_map (fun a -> if dmem.(a) <> golden a then Some (a, dmem.(a)) else None)

let run_sample t ?cell_filter ?(impact_cycles = 1) ?(hardened = fun _ -> false) ?(resilience = 10.)
    ?cycle_budget rng (sample : Sampler.sample) =
  if impact_cycles < 1 then invalid_arg "Engine.run_sample: impact_cycles must be >= 1";
  let te = Golden.target_cycle t.golden - sample.Sampler.t in
  if te < 1 then
    {
      sample;
      te;
      outcome = Masked;
      success = false;
      flips = [];
      dmem_diffs = [];
      direct = [||];
      latched = [||];
      struck_cells = 0;
    }
  else begin
    let t_begin = match t.einst with None -> 0. | Some _ -> Fmc_obs.Clock.now_us () in
    let net = t.circuit.Circuit.net in
    let sys = Obs.span t.obs ~cat:"engine" "restore" (fun () -> restore_owned t te) in
    let dff_hits, gate_hits, struck_cells = partition_disc ?cell_filter t sample.Sampler.center sample.Sampler.radius in
    let survives dff = (not (hardened dff)) || Rng.float rng 1.0 < 1. /. resilience in
    let direct = List.filter survives dff_hits in
    (* A sustained (multi-cycle) radiation event deposits the single-event
       upsets once and fresh combinational transients on every impacted
       cycle (paper §3.2: "our framework can easily incorporate multi-cycle
       impact"). *)
    List.iter (apply_flip sys net) direct;
    let latched = ref [] and writes = ref [] in
    for _ = 1 to impact_cycles do
      let latched_raw, write =
        (match t.einst with None -> () | Some ei -> Metrics.inc ei.e_gate_cycles);
        Obs.span t.obs ~cat:"engine" "gate_cycle" (fun () -> gate_cycle t sys sample gate_hits)
      in
      Option.iter (fun w -> writes := w :: !writes) write;
      let survivors = List.filter survives (Array.to_list latched_raw) in
      (* Latched errors corrupt the post-cycle state before the next
         impacted cycle executes. *)
      List.iter (apply_flip sys net) survivors;
      latched := !latched @ survivors
    done;
    let latched = List.sort_uniq compare !latched in
    (* Exact error set vs the golden run just past the impact window. *)
    let flips, dmem_diffs =
      Obs.span t.obs ~cat:"engine" "masking" (fun () ->
          ( state_bit_diffs (System.state sys) (entry t (te + impact_cycles)).arch,
            dmem_diffs t sys ~te ~cycles:impact_cycles (List.rev !writes) ))
    in
    let mem_clean = dmem_diffs = [] in
    let flip_nodes = List.map (fun (g, b) -> (N.register_group net g).(b)) flips in
    let outcome, success =
      if flips = [] && mem_clean then (Masked, false)
      else if
        flips <> [] && mem_clean
        && List.for_all (Precharac.memory_type t.precharac) flip_nodes
      then begin
        let e =
          Obs.span t.obs ~cat:"engine" "analytical" (fun () ->
              Analytical.evaluate ~program:t.program ~corrupted:(System.state sys))
        in
        (Analytical e, e)
      end
      else begin
        let budget = t.program.Fmc_isa.Programs.max_cycles + 100 in
        (* The optional watchdog bounds the RTL resume loop so a pathological
           sample raises [System.Cycle_budget_exhausted] instead of running
           away; the campaign runner quarantines it. *)
        let e =
          Obs.span t.obs ~cat:"engine" "rtl_resume" (fun () ->
              System.set_watchdog sys cycle_budget;
              ignore (System.run sys ~max_cycles:(max 1 (budget - System.cycle sys)));
              System.set_watchdog sys None;
              observables_differ t sys)
        in
        (Resumed e, e)
      end
    in
    (match t.einst with
    | None -> ()
    | Some ei -> Metrics.observe ei.e_sample_us (Fmc_obs.Clock.now_us () -. t_begin));
    {
      sample;
      te;
      outcome;
      success;
      flips;
      dmem_diffs;
      direct = Array.of_list direct;
      latched = Array.of_list latched;
      struck_cells;
    }
  end

type glitch_result = { g_te : int; g_success : bool; g_stale : (string * int) list }

let run_glitch t ~te ~period =
  if te < 1 then { g_te = te; g_success = false; g_stale = [] }
  else begin
    let net = t.circuit.Circuit.net in
    let sys = restore t te in
    (* Evaluate the glitched cycle at gate level: settle, commit the memory
       write at the nominal edge, clock with the shortened period. *)
    settle_at t sys;
    ignore (commit_write t sys ~hit:(fun _ -> false));
    let stale = Glitch.latch_with_glitch t.timing t.tconfig (Netsys.sim t.netsys) ~period in
    writeback t sys;
    let budget = t.program.Programs.max_cycles + 100 in
    ignore (System.run sys ~max_cycles:(max 1 (budget - System.cycle sys)));
    {
      g_te = te;
      g_success = observables_differ t sys;
      g_stale = Array.to_list (Array.map (N.dff_group net) stale);
    }
  end

let glitch_critical_path t = Glitch.critical_path t.timing

(* Leave-one-out counterfactual attribution: rebuild the post-injection
   state from the golden run at [te + 1], the register flips and the
   differing data words the sample recorded, then for each flipped bit
   resume the RTL run with that one bit restored; the bits whose
   restoration defeats the attack are the causal ones. Falls back to the
   full flip set when no single bit is individually necessary (jointly
   caused successes) or the run failed. *)
let causal_flips t (r : run_result) =
  if (not r.success) || r.flips = [] || r.te < 1 then r.flips
  else
    Obs.span t.obs ~cat:"engine" "causal" @@ fun () ->
    begin
    let flip st (group, bit) = Arch.set_group st group (Arch.get_group st group lxor (1 lsl bit)) in
    let sys = restore_owned t (r.te + 1) in
    List.iter (flip (System.state sys)) r.flips;
    List.iter (fun (a, v) -> (System.dmem sys).(a) <- v) r.dmem_diffs;
    let budget = t.program.Programs.max_cycles + 100 in
    (* The trial system never carries hooks, so its cycles go uncounted
       as a fresh system's would. *)
    let trial = t.trial in
    let fails_without f =
      System.copy_into ~src:sys trial;
      flip (System.state trial) f;
      ignore (System.run trial ~max_cycles:(max 1 (budget - System.cycle trial)));
      not (observables_differ t trial)
    in
    match List.filter fails_without r.flips with
    | [] -> r.flips
    | causal -> causal
  end

let static_vulnerable t =
  let net = t.circuit.Circuit.net in
  let vulnerable = Hashtbl.create 32 in
  (match (t.program.Programs.attack, t.program.Programs.user_code_range) with
  | Some (addr, perm), Some (lo, hi) ->
      let perm =
        match perm with
        | Programs.Attack_read -> Arch.Read
        | Programs.Attack_write -> Arch.Write
        | Programs.Attack_exec -> Arch.Exec
      in
      let base = System.state (restore t (Golden.target_cycle t.golden)) in
      Array.iter
        (fun dff ->
          let group, bit = N.dff_group net dff in
          let corrupted = Arch.copy base in
          Arch.set_group corrupted group (Arch.get_group corrupted group lxor (1 lsl bit));
          let privileged = corrupted.Arch.mode = 1 in
          let access = privileged || Arch.mpu_allows corrupted ~addr ~perm in
          let executable =
            privileged
            ||
            let ok = ref true in
            for pc = lo to hi do
              if not (Arch.mpu_allows corrupted ~addr:pc ~perm:Arch.Exec) then ok := false
            done;
            !ok
          in
          if access && executable then Hashtbl.replace vulnerable dff ())
        (N.dffs net)
  | _ -> ());
  fun dff -> Hashtbl.mem vulnerable dff

let gate_flips_only t rng (sample : Sampler.sample) =
  ignore rng;
  let te = max 1 (Golden.target_cycle t.golden - sample.Sampler.t) in
  let sys = restore t te in
  let dff_hits, gate_hits, _ = partition_disc t sample.Sampler.center sample.Sampler.radius in
  List.iter (apply_flip sys t.circuit.Circuit.net) dff_hits;
  let latched = gate_level_cycle t sys sample gate_hits in
  (latched, Array.of_list dff_hits)
