(** System Security Factor estimation (paper §3.3).

    [SSF = E_{T,P}(E)], estimated by the finite-sample mean of the
    (importance-weighted) success indicator. The report carries everything
    the paper's evaluation section reads off a run: the estimate, the
    sample variance (the convergence-rate driver of the LLN bound), the
    running-estimate trace (Fig. 9a), the outcome breakdown (Fig. 10a) and
    per-register success attribution (the "3% registers, 95% SSF"
    analysis). *)

type quarantine_reason =
  | Q_crashed  (** the evaluation raised (crash guard) *)
  | Q_timed_out  (** the per-sample cycle budget ran out (watchdog) *)

type outcome_counts = {
  masked : int;  (** no register error survived the injection cycle *)
  mem_only : int;  (** analytical evaluation sufficed *)
  resumed : int;  (** RTL simulation had to resume *)
  quarantined : int;
      (** samples whose evaluation crashed or timed out and was isolated by
          the campaign runner ({!Campaign}); always 0 for direct
          {!estimate} runs. The four buckets partition the [n] samples. *)
  q_crashed : int;  (** quarantines attributed to the crash guard *)
  q_timed_out : int;
      (** quarantines attributed to the cycle-budget watchdog;
          [q_crashed + q_timed_out = quarantined] *)
}

type report = {
  strategy : string;
  n : int;
  ssf : float;
  ssf_upper : float;
      (** conservative SSF bound that counts every quarantined sample as a
          full-weight success; equals [ssf] when nothing was quarantined *)
  variance : float;  (** unbiased sample variance of the weighted indicator *)
  successes : int;  (** raw count of successful attack runs *)
  ess : float;
      (** Kish effective sample size of the drawn importance weights,
          [n] under plain Monte Carlo; a low [ess/n] warns that the
          sampling distribution is poorly matched to [f] *)
  sum_w : float;  (** raw sum of drawn f-scaled weights, [ess]'s numerator root *)
  sum_w2 : float;
      (** raw sum of squared weights; carried so {!merge_reports} can pool
          ESS exactly as [(Σw)² / Σw²] instead of summing per-report ESS
          values (wrong whenever weight scales differ across reports) *)
  trace : (int * float) list;  (** (samples so far, running estimate) *)
  outcomes : outcome_counts;
  contributions : ((string * int) * float) list;
      (** per register bit: summed weight over successful runs it was
          corrupted in, descending *)
  success_by_direct : int;  (** successes whose strike flipped a register directly *)
  success_by_comb : int;  (** successes caused purely by combinational transients *)
}

(** The incremental estimator state that {!run_samples} feeds, exposed
    so the fault-tolerant campaign runner ({!Campaign}) can own it across
    a run — quarantine pathological samples, and durably snapshot/restore
    the whole accumulator mid-run. A tally fed the same (sample, result,
    attribution) stream as {!estimate} produces a bit-identical report. *)
module Tally : sig
  type t

  (** The complete, serializable accumulator state. Every float must be
      persisted exactly (e.g. hex float formatting) for a resumed campaign
      to be bit-identical to an uninterrupted one. [snap_accs] /
      [snap_pess] are Welford [(count, mean, m2)] triples aligned with
      [snap_strata]; [snap_trace] is chronological. *)
  type snapshot = {
    snap_total : int;
    snap_trace_every : int;
    snap_processed : int;
    snap_strata : (Sampler.stratum * float) list;
    snap_accs : (int * float * float) list;
    snap_pess : (int * float * float) list;
    snap_masked : int;
    snap_mem_only : int;
    snap_resumed : int;
    snap_quarantined : int;
    snap_q_crashed : int;
    snap_q_timed_out : int;
    snap_successes : int;
    snap_by_direct : int;
    snap_by_comb : int;
    snap_sum_w : float;
    snap_sum_w2 : float;
    snap_contributions : ((string * int) * float) list;
    snap_trace : (int * float) list;
  }

  val create : ?obs:Fmc_obs.Obs.t -> ?trace_every:int -> Sampler.prepared -> total:int -> t
  (** Fresh tally for a campaign of [total] samples ([trace_every]
      defaults to 50, matching {!estimate}). [obs] (default disabled)
      attaches observability: per-outcome counters, the importance-weight
      histogram and running SSF/ESS gauges in the metrics registry, and a
      convergence {!Fmc_obs.Progress.point} pushed at every trace bump.
      Observability never touches the statistics — an instrumented tally
      produces a bit-identical report. *)

  val processed : t -> int
  (** Samples consumed so far, including quarantined ones. *)

  val total : t -> int

  val record : t -> Sampler.sample -> Engine.run_result -> attributed:(string * int) list -> unit
  (** Fold one evaluated sample into the estimate. [attributed] is the flip
      list credited in the contribution table (the caller decides between
      causal attribution and the raw flip set, exactly as {!estimate}
      does). *)

  val quarantine : t -> Sampler.sample -> reason:quarantine_reason -> unit
  (** Consume one sample slot without folding it into the honest estimate:
      the sample counts in [n], the [quarantined] bucket and the [reason]'s
      sub-bucket, and enters the pessimistic accumulators as a full-weight
      success so [ssf_upper] stays a sound conservative bound. *)

  val report : t -> strategy:string -> report

  val snapshot : t -> snapshot

  val restore : ?obs:Fmc_obs.Obs.t -> snapshot -> t
  (** Rebuild a tally that continues exactly where [snapshot] left off.
      Observability starts fresh (metrics count this segment's work;
      throughput telemetry excludes the downtime since the snapshot).
      Raises [Invalid_argument] on an internally inconsistent snapshot. *)

  val to_string : snapshot -> string
  (** The canonical line-oriented text encoding of a snapshot, shared
      verbatim by the durable campaign checkpoint ({!Campaign}, format v3)
      and the distributed wire protocol ([Fmc_dist]) — one serializer, not
      two. Floats are hex float literals ([%h]), so
      [of_string (to_string s) = Ok s] round-trips every accumulator
      bit-exactly. *)

  val of_string : string -> (snapshot, string) result
  (** Decode {!to_string}'s encoding. [Error msg] names the first offending
      line of a truncated, reordered or malformed snapshot. *)

  val digest_hex : string -> string
  (** MD5 hex of a {!to_string} blob. Because the encoding is canonical
      (one serializer, hex-float literals, fixed line order), equal
      digests mean bit-identical accumulator states — the primitive the
      distributed result audit ([Fmc_audit]) is built on. *)
end

(** {2 Fault models}

    A per-sample injector: how one drawn sample is evaluated. Every
    estimator below takes one ([?inject], default {!disc_transient});
    the sample stream is drawn the same way whatever the model.
    [lib/core] deliberately knows nothing about the model registry —
    [Fmc_fault] builds the synthetic models' records. *)
type inject = {
  inj_model : string;
      (** canonical model string ([name\[:k=v,...\]]) recorded in
          campaign checkpoints and error messages *)
  inj_run :
    Engine.t -> ?cycle_budget:int -> Fmc_prelude.Rng.t -> Sampler.sample -> Engine.run_result;
      (** evaluate one drawn sample under this model. Unless
          [inj_reads_rng], the result must depend only on the engine's
          golden run and the sample: the generator passed in is not the
          campaign's stream, and the engine may be any replica of the
          one the loop was given ({!Engine.replicas}). [cycle_budget]
          arms the RTL-resume watchdog exactly as in
          {!Engine.run_sample} *)
  inj_causal : Engine.t -> Engine.run_result -> (string * int) list;
      (** contribution attribution for a successful run (the model's
          analogue of {!Engine.causal_flips}; returning
          [result.flips] is always sound) *)
  inj_prunable : bool;
      (** whether analytical masking certificates ([?prune]) are sound
          for this model; the one place prunability is declared *)
  inj_reads_rng : bool;
      (** whether [inj_run] draws from the campaign's stream (the
          generator it is passed); such a model runs each sample right
          after its draw, on the calling domain *)
}

val disc_transient : inject
(** The paper's native model, named ["disc-transient"]: [inj_run] is
    {!Engine.run_sample}, [inj_causal] is {!Engine.causal_flips}, and
    it is the only prunable model. *)

val disc_ablation :
  ?cell_filter:(Fmc_netlist.Netlist.node -> bool) ->
  ?impact_cycles:int ->
  ?hardened:(Fmc_netlist.Netlist.node -> bool) ->
  ?resilience:float ->
  unit ->
  inject
(** The native model with {!Engine.run_sample}'s ablations applied
    (comb-vs-seq cell filter, multi-cycle impact, register hardening).
    With none of [cell_filter]/[impact_cycles]/[hardened] it is
    {!disc_transient} itself. Otherwise it is named apart
    (["disc-transient+hardened+resilience=10"], ...), is not prunable,
    and credits raw flips instead of replaying causally: the
    leave-one-out replay re-strikes with the unmodified model. It reads
    the stream ([inj_reads_rng]) exactly when [hardened] is given: a
    hardened flip survives a draw. *)

val shard_plan : samples:int -> shard_size:int -> (int * int) array
(** Cut a campaign into contiguous sample-index shards: [(start, len)]
    pairs covering [\[0, samples)] in order, every shard of size
    [shard_size] except a possibly shorter last one. Shard [i] of a
    campaign with seed [s] is always evaluated under
    [Rng.substream ~seed:(Int64.of_int s) ~shard:i]
    (see {!Campaign.run_shard}), so the plan — not the process layout —
    determines every draw. Raises [Invalid_argument] on non-positive
    arguments. *)

(** An analytical masking oracle (e.g. [Fmc_sva.Pruner.prune]), split
    so that only recorded samples are counted. *)
type prune = {
  covered : Sampler.sample -> bool;
      (** true only for a sample the engine would classify as exactly
          [Masked]; called as the sample is drawn, which may be past a
          stop, so it counts nothing *)
  note : Sampler.sample -> covered:bool -> unit;
      (** counts a sample and its verdict as the sample is recorded *)
}

val pruned_result : Engine.t -> Sampler.sample -> Engine.run_result
(** The analytical result a certified-masked sample is tallied with:
    field-for-field what {!Engine.run_sample} returns on its masked path
    ([outcome = Masked], [success = false], no flips), so a pruned run
    stays bit-identical to the simulated one. *)

val run_samples :
  ?obs:Fmc_obs.Obs.t ->
  ?causal:bool ->
  ?prune:prune ->
  ?inject:inject ->
  ?cycle_budget:int ->
  ?fault_hook:(int -> Sampler.sample -> unit) ->
  ?quarantine:(int -> Sampler.sample -> quarantine_reason -> exn -> unit) ->
  ?after:(int -> unit) ->
  ?offset:int ->
  ?stop:(Tally.t -> bool) ->
  Engine.t ->
  Sampler.prepared ->
  Tally.t ->
  Fmc_prelude.Rng.t ->
  unit
(** The one sample loop behind every estimator ({!estimate},
    {!estimate_until}, and [Campaign]'s runs, shards and resumes).
    Until the tally holds {!Tally.total} samples or [stop tally] (polled
    before every draw) holds: draw a sample from [rng]; if
    [prune.covered] certifies it masked, tally {!pruned_result}; otherwise run
    [fault_hook i sample], evaluate with [inject.inj_run] (default
    {!disc_transient}, watchdog [cycle_budget]), attribute a success
    with [inject.inj_causal] when [causal] (default true), and
    {!Tally.record} it, calling [prune.note] first; finally call
    [after (Tally.processed tally)].
    [i] is the sample's 1-based index, [offset] (default 0) plus the
    tally's count.

    The loop runs on [Domain.recommended_domain_count ()] domains (see
    {!with_domains}) and its results do not depend on that number. The
    calling domain draws a block of samples, prunes them and runs their
    fault hooks; it and the {!Pool}'s helpers evaluate the block, each
    on its own {!Engine.replicas} engine; then the calling domain
    records the block in stream order, setting [rng] to each sample's
    post-draw state first, and polls [stop] after each record. So
    [after], [stop], the sink and a checkpoint of [rng] see exactly
    what a single domain gives them, and samples drawn past a stop are
    discarded unrecorded. The engine observations ([fmc_restores_total]
    and the rest) and the [prune.note] of a discarded sample are
    discarded with it, so the metrics are a single domain's too; only
    the trace keeps its spans. An [inject] that reads the
    stream, a single domain, or a pool held by another caller gives
    blocks of one sample, evaluated right after the draw on [engine]
    with [rng] itself.

    Without [quarantine] an evaluation exception propagates. With it,
    an exception from the fault hook or the evaluation (other than
    [Sys.Break]) is {!Tally.quarantine}d — [Q_timed_out] for
    {!Fmc_cpu.System.Cycle_budget_exhausted}, [Q_crashed] otherwise —
    and handed to the sink. [after] runs outside that guard, so an
    exception it raises (a worker's lost lease) aborts the run.

    [obs] (default disabled) is installed on [engine] for the loop's
    duration, restoring the previous handle after. Raises
    [Invalid_argument] when [prune] is given with a non-prunable
    [inject]: the certificates prove masking of the unmodified
    disc transient only. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with {!run_samples} pinned to [n]
    domains instead of [Domain.recommended_domain_count ()], so tests can
    compare one domain with several. Raises [Invalid_argument] when
    [n < 1]. *)

val estimate :
  ?obs:Fmc_obs.Obs.t ->
  ?trace_every:int ->
  ?causal:bool ->
  ?prune:prune ->
  ?inject:inject ->
  Engine.t ->
  Sampler.prepared ->
  samples:int ->
  seed:int ->
  report
(** [samples] iterations of {!run_samples} over [Rng.create seed],
    under fault model [inject] (default {!disc_transient}); an evaluation
    exception propagates. Deterministic for fixed arguments, including
    under [obs]: observability reads the sample stream but never the RNG.

    [prune] is an analytical masking oracle (e.g.
    [Fmc_sva.Pruner.prune]): when [covered] is true the sample {e must} be
    one the engine would classify as exactly [Masked] — the simulation is
    skipped and the sample is tallied analytically as a masked failure
    with its original weight, leaving the report byte-identical to the
    unpruned run (an unsound oracle silently biases the estimate; use the
    certified pruner). [causal] (default true) credits successful runs
    through the model's attribution (leave-one-out {!Engine.causal_flips}
    for the native model), so the contribution list reflects causal bits
    rather than incidental co-flips. Raises [Invalid_argument] on a
    non-positive sample count or a non-prunable [inject] with [prune]. *)

val merge_reports : report list -> report
(** Pool split-run reports (parallel domains, checkpointed shards,
    distributed workers) into one: sample-count-weighted means for the
    estimates, summed counters, summed contribution tables, and the ESS
    recomputed from the pooled weight sums [(Σw)² / Σw²]. Every float
    reduction sorts its addends first, so the merged report is
    {e bit-identical under any permutation} of the input list — worker or
    batch completion order cannot change the result. The running-estimate
    [trace] is merged by local sample index (each point is the pooled
    estimate over every part's latest trace entry, plotted at the total
    number of samples finished across parts), so distributed and local
    convergence plots agree. Raises [Invalid_argument] on an empty
    list. *)

val confidence_interval : report -> z:float -> float * float
(** Normal-approximation confidence interval for the SSF estimate:
    [estimate -/+ z * sqrt(variance / n)] clamped to [\[0, 1\]]. [z = 1.96]
    for 95%. *)

val estimate_until :
  ?obs:Fmc_obs.Obs.t ->
  ?trace_every:int ->
  ?causal:bool ->
  ?prune:prune ->
  ?inject:inject ->
  ?batch:int ->
  ?max_samples:int ->
  Engine.t ->
  Sampler.prepared ->
  half_width:float ->
  z:float ->
  seed:int ->
  report
(** The paper's stopping rule made concrete: one {!run_samples} pass
    over [Rng.create seed] that tests the confidence interval's
    half-width at [batch] (default 500) and then at every doubling
    ([n -> max (n + batch) (2n)], capped at [max_samples], default
    200_000), stopping at the first point where it is at most
    [half_width] or [max_samples] is reached. The report is
    byte-identical to [estimate ~samples:r.n]'s with the same seed, and
    each sample is evaluated once (progress rows count up from the first
    draw without restarting). Raises [Invalid_argument] on a
    non-positive [half_width] or [batch]. *)

val contribution_coverage : report -> fraction:float -> ((string * int) * float) list
(** The smallest prefix of [contributions] covering at least [fraction] of
    the total success weight. *)
