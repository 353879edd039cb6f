(** Fault-tolerant campaign runner: a supervised, resumable wrapper around
    the {!Ssf} estimator for long Monte Carlo campaigns. Every entry point
    drives the estimator's own sample loop ({!Ssf.run_samples}) and
    supplies only what differs: the RNG stream (campaign seed, shard
    substream or checkpointed state), the checkpoint/journal/signal sink,
    the heartbeat hook and the stop rule.

    Three failure modes of a long campaign are handled:

    + {b process death} — the accumulated statistics are periodically
      serialized to a durable checkpoint (atomic rename-on-write), and
      {!resume} continues a campaign {e bit-exactly}: an interrupted +
      resumed run produces the same report as an uninterrupted one;
    + {b pathological samples} — a sample whose evaluation raises or blows
      a configurable cycle budget is quarantined (recorded in the failure
      journal, excluded from the honest estimate, folded into the
      conservative [ssf_upper] bound) instead of killing the campaign;
    + {b operator interruption} — SIGINT/SIGTERM request a graceful stop:
      the in-flight sample finishes, a final checkpoint is flushed, and
      the partial report is returned with status {!Interrupted}.

    {2 Checkpoint format}

    A versioned line-oriented text file (header [faultmc-campaign 5];
    every other version is refused rather than silently misread): a
    campaign header — strategy, the canonical fault model
    ([inj_model] of the {!Ssf.inject}, refused on resume mismatch
    exactly like the strategy), seed, RNG state — around the shared
    {!Ssf.Tally.to_string} codec (the same serializer the distributed
    campaign service ([Fmc_dist]) ships shard results and service
    state with), sealed by a [crc %08x] trailer line (CRC-32 of every
    byte up to and including the [end] marker; {!Fmc_prelude.Record}),
    so truncation or bit rot is detected before any of the body is
    parsed. Every float is a hex
    float literal ([%h]) so the round-trip through [float_of_string] is
    bit-exact; the RNG state is the raw SplitMix64 int64 word.
    Checkpoints are written to [path ^ ".tmp"] and renamed into place,
    so a crash mid-write never corrupts the previous checkpoint. Unknown
    versions, CRC mismatches and malformed files raise
    {!Checkpoint_corrupt} carrying the offending path.

    {2 Failure journal}

    One JSON object per quarantined sample (JSON Lines), appended and
    flushed immediately:
    [{"index":..,"disposition":"crashed"|"timed_out","error":..,
      "sample":{"stratum":..,"t":..,"center":..,"radius":..,"width":..,
      "time_frac":..,"weight":..}}]. *)

type disposition =
  | Crashed of string  (** the evaluation raised; payload: the exception *)
  | Timed_out  (** the per-sample cycle budget was exhausted *)

type quarantine_entry = {
  q_index : int;  (** 1-based sample index within the campaign *)
  q_disposition : disposition;
  q_sample : Sampler.sample;  (** the drawn sample that failed *)
}

type config = {
  checkpoint_path : string option;  (** where to durably snapshot state *)
  checkpoint_every : int;  (** snapshot period in samples (default 1000) *)
  journal_path : string option;  (** JSONL failure journal, append mode *)
  sample_budget : int option;
      (** per-sample RTL cycle budget; exceeding it quarantines the sample
          as [Timed_out] (see {!Engine.run_sample}'s [cycle_budget]) *)
  handle_signals : bool;
      (** install SIGINT/SIGTERM handlers for graceful stop (default true;
          disable inside tests or when the host owns signal handling) *)
}

val default_config : config
(** No checkpointing, no journal, no budget, signals handled. *)

type status =
  | Completed  (** all requested samples were consumed *)
  | Interrupted  (** stopped early by a signal or the [stop] predicate *)

type result = {
  report : Ssf.report;  (** quarantined samples count in [n] and [outcomes.quarantined] *)
  status : status;
  quarantined : quarantine_entry list;  (** chronological *)
  elapsed_s : float;  (** wall-clock duration of this run/resume segment *)
  samples_per_sec : float;
      (** throughput of this segment: samples processed here over
          [elapsed_s] (a resumed campaign does not count the samples or
          downtime before its checkpoint); 0 when [elapsed_s] is 0 *)
}

exception Checkpoint_corrupt of { path : string; reason : string }
(** A checkpoint file that cannot be trusted: unreadable, truncated,
    failing its CRC-32 trailer, malformed, an unsupported version, or
    taken under a different sampling strategy. [path] is the offending
    file. *)

val run :
  ?config:config ->
  ?obs:Fmc_obs.Obs.t ->
  ?trace_every:int ->
  ?causal:bool ->
  ?fault_hook:(int -> Sampler.sample -> unit) ->
  ?prune:Ssf.prune ->
  ?inject:Ssf.inject ->
  ?stop:(int -> bool) ->
  Engine.t ->
  Sampler.prepared ->
  samples:int ->
  seed:int ->
  result
(** Run a fresh campaign. With no quarantines and no interruption the
    report is identical to [Ssf.estimate ~causal ~inject engine prepared
    ~samples ~seed]. [inject] (default {!Ssf.disc_transient}) is the
    fault model every sample is evaluated under; its name is recorded in
    the checkpoint header, and combining [prune] with a non-prunable one
    raises [Invalid_argument] (masking certificates cover the unmodified
    disc transient only).
    [stop] is polled with the processed-sample count before each
    draw (a [true] stops the campaign exactly like a signal would);
    [fault_hook] runs inside the per-sample guard before evaluation — an
    exception it raises quarantines that sample (test fault-injection
    point). [prune] is the analytical masking oracle of [Ssf.estimate]:
    a covered sample skips evaluation (and the fault hook) and is tallied
    as masked with its original weight, keeping the report byte-identical
    to the unpruned campaign. [obs] (default disabled) attaches observability: the tally's
    convergence telemetry, a ["checkpoint_write"] span plus
    [fmc_checkpoints_total] counter per durable checkpoint, and the
    engine's phase spans (the handle is installed on [engine] for the
    campaign's duration, restoring the previous one after). Observability
    never touches the RNG — the report stays bit-identical. Raises
    [Invalid_argument] on a non-positive sample count or checkpoint
    period. *)

val journal_line : quarantine_entry -> string
(** The failure journal's JSON rendering of one entry (no trailing
    newline) — exposed so the campaign service can journal entries
    reported by remote workers in the exact format local campaigns use. *)

val quarantine_entry_to_string : quarantine_entry -> string
(** Compact single-line text codec for a quarantine entry, shared by the
    distributed wire protocol and the service checkpoint. A crash
    message survives verbatim except that newlines are flattened to
    spaces. *)

val quarantine_entry_of_string :
  string -> (quarantine_entry, string) Stdlib.result
(** Decode {!quarantine_entry_to_string}'s encoding. *)

(** {2 Shard-seeded execution}

    The unit of work of a distributed campaign ([Fmc_dist]). A shard is a
    contiguous sample-index range of the {!Ssf.shard_plan} cut, evaluated
    under its own SplitMix64 substream [Rng.substream ~seed ~shard] — so
    the drawn samples depend only on [(seed, shard)], never on which
    process runs the shard or how often its lease was re-issued, and
    re-running a shard reproduces the bit-identical snapshot. *)

type shard_result = {
  sh_shard : int;
  sh_start : int;  (** global index of the shard's first sample *)
  sh_len : int;
  sh_snapshot : Ssf.Tally.snapshot;
  sh_quarantined : quarantine_entry list;
      (** chronological; [q_index] values are global sample indices *)
}

val run_shard :
  ?obs:Fmc_obs.Obs.t ->
  ?trace_every:int ->
  ?causal:bool ->
  ?sample_budget:int ->
  ?fault_hook:(int -> Sampler.sample -> unit) ->
  ?prune:Ssf.prune ->
  ?inject:Ssf.inject ->
  ?on_sample:(int -> unit) ->
  Engine.t ->
  Sampler.prepared ->
  seed:int ->
  shard:int ->
  start:int ->
  len:int ->
  shard_result
(** Evaluate one shard with the same sample loop and per-sample
    supervision as {!run} (crash guard, cycle-budget watchdog, quarantine
    accounting, [prune]/[inject] guard).
    [on_sample] is called with the within-shard sample count (1-based)
    after every consumed sample, {e outside} the crash guard — a worker
    uses it to send heartbeats, and may raise from it to abandon the
    shard (e.g. on a lost lease) without quarantining the current sample.
    Raises [Invalid_argument] on a non-positive [len] or negative
    [start]. *)

val shard_report : strategy:string -> Ssf.Tally.snapshot -> Ssf.report
(** [Ssf.Tally.report] of a restored snapshot: how both the service
    and {!estimate_sharded} turn a shard's (possibly wire-decoded)
    snapshot into a mergeable report. Restoring then reporting is
    bit-exact, so the merged campaign report cannot depend on whether a
    snapshot crossed a process boundary. *)

val estimate_sharded :
  ?obs:Fmc_obs.Obs.t ->
  ?trace_every:int ->
  ?causal:bool ->
  ?sample_budget:int ->
  ?fault_hook:(int -> Sampler.sample -> unit) ->
  ?prune:Ssf.prune ->
  ?inject:Ssf.inject ->
  ?shard_size:int ->
  Engine.t ->
  Sampler.prepared ->
  samples:int ->
  seed:int ->
  result
(** The single-process reference for a distributed campaign: run every
    shard of [Ssf.shard_plan ~samples ~shard_size] (default 1000) in
    order, then pool the per-shard reports with {!Ssf.merge_reports}. A
    distributed run with the same [(samples, seed, shard_size)] produces
    the bit-identical report — same [ssf], [variance], [sum_w], [sum_w2],
    outcome counts, trace and contributions — independent of worker
    count, scheduling or mid-campaign worker deaths. Raises
    [Invalid_argument] on non-positive [samples] or [shard_size]. *)

val resume :
  ?config:config ->
  ?obs:Fmc_obs.Obs.t ->
  ?causal:bool ->
  ?fault_hook:(int -> Sampler.sample -> unit) ->
  ?prune:Ssf.prune ->
  ?inject:Ssf.inject ->
  ?stop:(int -> bool) ->
  Engine.t ->
  Sampler.prepared ->
  path:string ->
  result
(** Continue a checkpointed campaign from [path]. The engine, prepared
    sampler and fault model must be reconstructed identically to the
    original run (same benchmark, strategy and parameters) — the
    checkpoint carries the strategy name and canonical fault model and
    refuses a mismatch of either, but cannot verify the rest.
    Unless [config] overrides [checkpoint_path], further checkpoints are
    written back to [path]. Raises {!Checkpoint_corrupt} on a malformed,
    truncated, CRC-failing or version-mismatched file. *)
