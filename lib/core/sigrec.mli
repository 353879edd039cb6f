(** Switching-signature recording over a full gate-level system run
    (paper §4, pre-characterization step 2).

    Runs the netlist system on the synthetic benchmark, recording the
    settled value of {e every} node at every cycle, and derives per-node
    switching signatures. Correlations [Corr_i(g, rs)] against a responding
    signal ({!Precharac.correlation}) are then word-parallel popcount
    operations. *)

type t

val record : Fmc_cpu.Netsys.t -> cycles:int -> t
(** Advances the system [cycles] cycles (or until halt, whichever is
    first; remaining cycles repeat the halted state, which switches
    nothing). *)

val cycles : t -> int

val switches : t -> Fmc_netlist.Netlist.node -> Fmc_prelude.Bitvec.t

val activity : t -> Fmc_netlist.Netlist.node -> float
(** Fraction of cycles the node switched (its signature weight / cycles). *)
