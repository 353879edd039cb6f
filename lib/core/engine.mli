(** The cross-level fault-propagation engine (paper §5, Fig. 5).

    One fault-attack run:
    + restart RTL simulation from the golden checkpoint nearest to the
      injection cycle [Te = Tt - t] and warm up to [Te];
    + resolve the radiated disc [(g, r)] on the placement; flip struck
      flip-flops directly (direct SEUs);
    + switch to gate level for the injection cycle: settle the netlist on
      the architectural state (incrementally, from the golden run's
      settled values for that cycle, see {!gate_level_cycle}), propagate
      the voltage transients through the struck fan-out
      ([Fmc_gatesim.Transient]), and collect the registers that latch
      errors;
    + compare the post-cycle state and memory against the golden run at
      [Te + 1] ({!errors}), then classify: no flips — masked; flips
      confined to memory-type registers — analytical evaluation;
      otherwise inject the flips back into the RTL state and resume RTL
      simulation to completion ({!resume});
    + the attack succeeded iff a benchmark observable differs from the
      golden run.

    Hardened registers (paper §6) drop each would-be flip with probability
    [1 - 1/resilience]. *)

type t

val create :
  ?checkpoint_every:int ->
  ?placement_seed:int ->
  precharac:Precharac.t ->
  Fmc_isa.Programs.t ->
  t
(** Builds the golden run, placement and transient-timing configuration for
    a benchmark, sharing the (benchmark-independent) pre-characterization. *)

val replicas : t -> int -> t array
(** [replicas t n]: [n] engines for other domains, created on first use
    and kept by [t]. A replica shares [t]'s immutable parts (circuit,
    placement, golden run, timing) and its golden-cycle cache, whose fills
    are locked; it owns its simulator state, transient scratch and restore
    targets, so each of [t] and its replicas may run samples on its own
    domain at the same time. A replica starts with a disabled handle and
    is always deferred ({!defer_fills}), so it touches no metric cell
    and may carry [t]'s registry: what it counts reaches the registry
    through {!take_fills} and [t]'s {!charge_fills}. Call from the domain
    that owns [t]. *)

type fills
(** What a run counted while deferred: golden-cycle cache entries it
    touched before their fill was counted, restores, RTL and gate-level
    cycles, {!run_sample} latencies and fault-model runs. *)

val defer_fills : t -> bool -> unit
(** While on, the engine makes every count of its handle (the series
    {!set_obs} lists and {!count_fault_run}'s) into a pending record
    for {!take_fills}, and a cache entry whose fill is not yet counted
    is collected there instead of being counted at its first touch; no
    metric cell is touched. The sample loop turns it on for samples
    whose record may be dropped, so each sample's counts, and a fill's
    restore, are counted once, with the recorded sample (a fill with
    the first recorded sample that touches it): the counts a single
    domain makes. Turning it on or off drops what is pending. *)

val take_fills : t -> fills
(** Hand over what was counted since the last call (nothing when
    deferral is off). *)

val charge_fills : t -> fills -> unit
(** Add [fills]' counts to this engine's handle, and count the fills
    among them that nobody has counted yet. *)

val obs : t -> Fmc_obs.Obs.t
(** The engine's observability handle ({!Fmc_obs.Obs.disabled} until
    {!set_obs}). *)

val set_obs : t -> Fmc_obs.Obs.t -> unit
(** Install an observability handle: subsequent {!run_sample} calls record
    phase spans (restore / gate_cycle / masking / analytical / rtl_resume)
    and bump the engine counters ([fmc_restores_total],
    [fmc_rtl_cycles_total], [fmc_gate_cycles_total],
    [fmc_sample_duration_us]). The restore and RTL-cycle counters cover
    every golden restore the engine makes: {!restore_run} (samples,
    causal attribution, the fault models, {!run_glitch},
    {!static_vulnerable}, {!gate_flips_only}) and the golden-cycle cache
    fills. Unless the engine is deferred ({!defer_fills}), a
    count lands on the handle's registry at once. Callers rarely need
    this directly: {!Ssf.estimate} installs its [?obs] on the engine for
    the run's duration and restores the previous handle afterwards.
    Observability never consumes randomness — results are bit-identical
    either way. *)

val golden : t -> Golden.t

val restore_run : t -> int -> Fmc_cpu.System.t
(** The engine's one golden restore: {!Golden.restore_into} of the
    engine's golden run into the system the engine owns, at the given
    cycle, with no fresh data memory. With observability installed it
    bumps [fmc_restores_total] and arms the [fmc_rtl_cycles_total] hook
    on the system (warm-up cycles and any later resume count, on the
    engine as it is at each step). The system is the engine's; it is
    valid until the engine's next run or restore. *)

val count_fault_run : t -> string -> unit
(** [count_fault_run t metric]: one sample evaluated under the fault
    model whose metric name is [metric], counted on the engine's handle
    as [fmc_fault_runs_total] and [fmc_fault_<metric>_runs_total]
    (deferred like the engine's other counts). *)

val golden_settled : t -> int -> Bytes.t
(** The fault-free settled node values at the start of golden cycle [c]
    (every gate at its stable value, inputs driven from the golden
    memories), one byte per node as {!Fmc_gatesim.Cycle_sim.save_values}
    encodes them. Comes from the engine's golden-cycle cache, whose
    entry for [c] also holds the golden architectural state and data
    memory at the start of [c] (see {!gate_level_cycle} and {!errors});
    callers must not mutate it. *)

val placement : t -> Fmc_layout.Placement.t
val precharac : t -> Precharac.t
val circuit : t -> Fmc_cpu.Circuit.t
val transient_config : t -> Fmc_gatesim.Transient.config

val watch : t -> Fmc_netlist.Netlist.node array
(** The memory write port (write enable, address, data): the nodes a
    gate-level cycle passes to {!Fmc_gatesim.Transient.inject} as
    [watch]. *)

val program : t -> Fmc_isa.Programs.t

type outcome =
  | Masked  (** no register error at the end of the injection cycle *)
  | Analytical of bool  (** memory-type-only flips, evaluated without simulation *)
  | Resumed of bool  (** RTL simulation resumed; payload of both: success *)

type run_result = {
  sample : Sampler.sample;
  te : int;  (** injection cycle *)
  outcome : outcome;
  success : bool;
  flips : (string * int) list;  (** (group, bit) register errors after [Te] *)
  dmem_diffs : (int * int) list;
      (** (address, value) data words where the memory after [Te] differs
          from the golden run's, ascending by address *)
  direct : Fmc_netlist.Netlist.node array;  (** directly struck flip-flops (post-hardening) *)
  latched : Fmc_netlist.Netlist.node array;  (** flip-flops that latched transients (post-hardening) *)
  struck_cells : int;  (** cells inside the radiated disc *)
}

val run_sample :
  t ->
  ?cell_filter:(Fmc_netlist.Netlist.node -> bool) ->
  ?impact_cycles:int ->
  ?hardened:(Fmc_netlist.Netlist.node -> bool) ->
  ?resilience:float ->
  ?cycle_budget:int ->
  Fmc_prelude.Rng.t ->
  Sampler.sample ->
  run_result
(** One fault-attack run of the native disc-transient model.
    [cell_filter] restricts which struck cells take effect (used by the
    comb-vs-seq population studies of Fig. 10). [impact_cycles] (default 1)
    models a sustained radiation event: direct upsets land once, fresh
    transients are injected on each of the impacted cycles (paper §3.2's
    multi-cycle extension point). [resilience] defaults to 10 (a hardened
    flip keeps 1/10 of flips); only consulted for registers selected by
    [hardened]. [cycle_budget] arms a watchdog on the RTL resume phase:
    when the resumed run consumes more than that many cycles the sample
    raises {!Fmc_cpu.System.Cycle_budget_exhausted} — the campaign runner
    ({!Campaign}) turns this into a [Timed_out] quarantine instead of an
    aborted run. Unset means the benchmark's own [max_cycles + 100] cap
    alone bounds the resume. *)

val masked : ?struck_cells:int -> t -> Sampler.sample -> run_result
(** The result of a sample that ran no injection, or whose injection
    left no error: outcome [Masked], no flips, data words or struck
    flip-flops, [te = Tt - t] and [struck_cells] (default 0).
    {!run_sample} returns it for a strike before reset, the fault models
    for their masked samples and {!Ssf.pruned_result} for a certified
    one. *)

(** {2 Injection building blocks}

    The primitive steps {!run_sample} is composed of, exported so
    pluggable fault models ([Fmc_fault]) can assemble alternative
    injection scenarios (direct SEU bursts, instruction skips, temporal
    double strikes) against the same golden run, placement and
    netlist-transfer machinery. All are deterministic. *)

val partition_disc :
  ?cell_filter:(Fmc_netlist.Netlist.node -> bool) ->
  t ->
  Fmc_netlist.Netlist.node ->
  float ->
  Fmc_netlist.Netlist.node list * Fmc_netlist.Netlist.node list * int
(** [partition_disc t center radius] resolves the radiated disc on the
    placement: [(struck flip-flops, struck gates, total struck cells)],
    each list in deterministic placement-index order. *)

val apply_flip : Fmc_cpu.System.t -> Fmc_netlist.Netlist.t -> Fmc_netlist.Netlist.node -> unit
(** XOR one flip-flop's bit into the system's architectural state. *)

val observables_differ : t -> Fmc_cpu.System.t -> bool
(** Compare the system's observable memory values against the golden
    run's final observables — the attack-success criterion. *)

val state_bit_diffs : Fmc_cpu.Arch.t -> Fmc_cpu.Arch.t -> (string * int) list
(** [(group, bit)] positions where the two architectural states differ,
    in canonical group order — the exact register-error extraction
    {!errors} performs against the golden reference. *)

val errors : t -> Fmc_cpu.System.t -> at:int -> (string * int) list * (int * int) list
(** [errors t sys ~at]: the register errors ({!state_bit_diffs}) and the
    (address, value) data words, ascending by address, where [sys]
    differs from the golden run at the start of cycle [at] — the one
    masking check of {!run_sample} and every fault model. The golden
    state and memory come from the golden-cycle cache (filled on first
    use of [at], which may lie past the golden run's halt), so the check
    restores nothing once the cycle is cached. *)

val resume : t -> ?cycle_budget:int -> Fmc_cpu.System.t -> bool
(** Run the system to the end of the benchmark ([max_cycles + 100]
    cycles from reset at most) and judge the attack by
    {!observables_differ}: the RTL resume of {!run_sample},
    {!causal_flips}, {!run_glitch} and the fault models. [cycle_budget]
    arms the watchdog for the resume, as {!run_sample} documents. *)

val gate_level_cycle :
  t -> Fmc_cpu.System.t -> Sampler.sample -> Fmc_netlist.Netlist.node list -> Fmc_netlist.Netlist.node array
(** Evaluate one injection cycle at gate level: settle the netlist on the
    system's state and memory, propagate voltage transients at the struck
    gates ([sample]'s intra-cycle time and pulse width apply), capture the
    memory write port, latch, and write the fault-free-latched next state
    back. The system is advanced one cycle; returns the flip-flops that
    latched errors (applying them is the caller's choice).

    Works for any system state: the settle starts from the golden settled
    values of [System.cycle sys] ({!golden_settled}) and
    {!Fmc_cpu.Netsys.resettle} re-evaluates only the fan-out of the
    register bits and fetched / read-data bits where the system differs
    from golden, then the transients visit only the struck fan-out. The
    cost is therefore proportional to those two cones, plus one golden
    restore and full settle the first time the engine sees a cycle. *)

type glitch_result = {
  g_te : int;
  g_success : bool;
  g_stale : (string * int) list;  (** register bits that kept stale state *)
}

val run_glitch : t -> te:int -> period:float -> glitch_result
(** Clock-glitch attack run (the paper's alternative injection technique):
    the cycle at [te] is clocked with a shortened [period]; flip-flops on
    paths longer than [period - setup] keep stale state ({!Fmc_gatesim.Glitch}),
    then the RTL run resumes and the usual observable comparison decides
    success. The memory port samples at the nominal edge. Deterministic. *)

val glitch_critical_path : t -> float
(** Longest-path delay of the netlist under the engine's timing config. *)

val causal_flips : t -> run_result -> (string * int) list
(** Leave-one-out counterfactual attribution for a successful run: rebuild
    the post-injection state as the golden state at [te + 1] with the
    result's [flips] and [dmem_diffs] applied (no gate-level replay), and
    resume the RTL run once per flipped bit with that bit restored;
    returns the bits whose restoration defeats the attack. Falls back to
    the full flip set for failed runs and for jointly-caused successes (no
    single bit necessary). Only valid for single-cycle results
    ([impact_cycles = 1]), whose errors are measured at [te + 1]. *)

val static_vulnerable : t -> Fmc_netlist.Netlist.node -> bool
(** Analytical single-bit vulnerability scan (pre-characterization step 3,
    "considering the system configuration, faulty registers and
    benchmarks"): true for a flip-flop whose lone flip, applied to the
    golden state at the target cycle, lets the benchmark's malicious
    access pass the hardware check (privilege-mode escalation or an MPU
    region widened over the protected address) while the user program
    stays executable. These bits are deterministic attack wins whenever
    the error persists to [Tt]; the importance sampler uses them as a
    vulnerability prior. *)

val gate_flips_only :
  t -> Fmc_prelude.Rng.t -> Sampler.sample -> Fmc_netlist.Netlist.node array * Fmc_netlist.Netlist.node array
(** Gate-level-only evaluation of a strike at the injection cycle:
    [(latched, direct)] flip sets with no downstream run — the error-pattern
    studies of Fig. 7 use this. Restores through {!restore_run}. *)
