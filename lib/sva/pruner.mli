(** Analytical hot-loop pruner: sound per-sample masking certificates.

    [check t sample] decides whether the engine is {e guaranteed} to
    classify [sample] as exactly [Masked] — the outcome, success flag,
    flips and every field {!Fmc.Ssf.Tally.record} reads are all forced —
    so the Monte Carlo loop can skip the gate-level simulation and tally
    the sample analytically with its original weight, keeping the report
    byte-identical to the unpruned run.

    The certificate is a joint three-valued propagation of the whole
    struck-cell set at the sample's injection cycle (per-cell certificates
    do {e not} compose: two unknowns can reconverge and still cancel, or
    not). Definiteness of every flip-flop D input and of the memory write
    port, under golden seeds with X at struck cells, implies the latched
    state and memory equal the golden run — the soundness argument is
    spelled out in DESIGN.md §13.

    The propagation chases the X-front through the struck cells' fan-out
    cone with a logic-level-ordered worklist, refutes at the first X that
    reaches a live sink, and gives up (soundly reporting "not covered")
    at a fixed gate-evaluation budget — so the per-sample cost is bounded
    far below one simulation. The golden settled values it starts from
    are the engine's own per-cycle memo ({!Fmc.Engine.golden_settled}). *)

type t

type stats = { mutable checked : int; mutable pruned : int; mutable certificates : int }

val create : ?obs:Fmc_obs.Obs.t -> Fmc.Engine.t -> t
(** A pruner over the engine's golden run and placement; it keeps only
    its own abstract-state scratch, so it must run on the engine's domain.
    When [obs] carries a metrics registry, registers
    [fmc_sva_samples_checked_total], [fmc_sva_samples_pruned_total],
    [fmc_sva_certificates_total] and the [fmc_sva_prune_ratio] gauge. *)

val covered : t -> Fmc.Sampler.sample -> bool
(** True iff the sample is provably [Masked]; counts nothing. *)

val note : t -> Fmc.Sampler.sample -> covered:bool -> unit
(** Count one sample and its {!covered} verdict: the checked, pruned and
    certificate stats and metrics, and the prune-ratio gauge. *)

val check : t -> Fmc.Sampler.sample -> bool
(** {!covered}, then {!note} of the verdict. *)

val prune : t -> Fmc.Ssf.prune
(** The pruner as [Ssf.estimate]'s / [Campaign.run]'s [?prune]: it
    asks {!covered} as a sample is drawn and {!note}s only the samples
    the loop records, so the stats do not depend on the domain count. *)

val stats : t -> stats
val prune_ratio : t -> float

val self_check :
  ?points:int -> ?seed:int -> t -> int * (Fmc_netlist.Netlist.node * int) list
(** Soundness cross-check: draw random single-flip-flop (cell, cycle)
    points, keep the ones the pruner claims covered, run the full engine
    on each and report [(claimed, violations)] where every violation is a
    [(dff, te)] the engine did {e not} classify as [Masked] (must be
    empty). Wired behind [faultmc sva --check] and the test suite. *)
