(** System pre-characterization (paper §4): the three steps that feed the
    importance-sampling distribution.

    1. {e Responding-signal cones}: identify the violation-flag nodes and
       compute their fan-in/fan-out cones per unrolled depth
       ([Omega_i] sample-space slices).
    2. {e Switching signatures}: gate-level simulation of the synthetic
       benchmark; per-node signatures and bit-flip correlations with the
       responding signals.
    3. {e Error lifetime / contamination}: RTL fault-injection on every
       cone register; memory- vs computation-type classification.

    Pre-characterization runs once per system and is reused across
    benchmarks, strategies and sweeps. *)

type t

val run :
  ?depth:int ->
  ?fanout_depth:int ->
  ?sig_cycles:int ->
  ?lifetime_config:Lifetime.config ->
  Fmc_cpu.Circuit.t ->
  rng:Fmc_prelude.Rng.t ->
  t
(** Defaults: [depth] 50 unrolled cycles, [fanout_depth] 3,
    [sig_cycles] 600 (clamped to the synthetic benchmark's golden length). *)

val circuit : t -> Fmc_cpu.Circuit.t
val unroll : t -> Fmc_netlist.Unroll.t
val lifetimes : t -> Lifetime.t
val responding_signals : t -> Fmc_netlist.Netlist.node list

val level : t -> int -> Fmc_netlist.Unroll.level
(** [Omega_i] slice; empty beyond the computed depth rather than raising. *)

val depth : t -> int

val correlation_kernel : t -> shift:int -> Fmc_netlist.Netlist.node -> float
(** [correlation_kernel t ~shift] is [fun node -> correlation t node ~shift]
    with each responding signal's signature shifted once, up front: apply
    it partially to score many nodes at one timing distance. *)

val correlation : t -> Fmc_netlist.Netlist.node -> shift:int -> float
(** [max_rs Corr_shift(node, rs)] over the responding signals. *)

val gate_lifetime : t -> Fmc_netlist.Netlist.node -> float
(** The paper's [L(g)]: a flip-flop's own error lifetime; for a
    combinational gate, the maximum lifetime over the flip-flops in its
    same-cycle fan-out cone. *)

val memory_type : t -> Fmc_netlist.Netlist.node -> bool

val memory_type_registers : t -> Fmc_netlist.Netlist.node array

val cone_registers : t -> Fmc_netlist.Netlist.node array
(** All registers of all fan-in/fan-out levels. *)
