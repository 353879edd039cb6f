(** The distributed campaign worker ([faultmc worker]) and the report
    client ([faultmc evaluate --connect]).

    A worker builds its engine/prepared sampler locally (the same way a
    local campaign would), connects, and loops: lease a shard, run it
    under the shard's RNG substream via {!Campaign.run_shard}, stream
    the tally snapshot + quarantine entries back. Heartbeats are sent
    from the per-sample hook; a negatively-acked heartbeat (lost lease)
    abandons the shard mid-run — the re-issued lease reproduces the
    bit-identical result elsewhere.

    Reconnects (DESIGN.md §11): a transport failure mid-campaign
    (connection drop, corrupt stream, socket deadline, mid-session
    reject, [Retry_later] parking) no longer kills the worker. The
    in-flight shard is abandoned to epoch fencing and the worker
    re-enters connecting with exponential backoff and decorrelated
    jitter, bounded by {!retry.max_attempts} consecutive attempts and a
    {!retry.budget_s} total-sleep budget. The backoff schedule draws
    from the worker's own RNG substream of the campaign seed, so it
    replays under the chaos harness. Only a handshake [Reject]
    (version or fingerprint mismatch, quarantine) is terminal.

    Fleet observability: the worker reads the trace/span ids the
    service stamps on each [Assign]/[Job] and piggybacks a
    {!Fmc_obs.Telemetry} batch on its existing messages — the snapshot
    plus one span summary covering the shard's wall time on every
    [Shard_done]/[Job_done], next to the canonical result digest, and
    the snapshot alone on a heartbeat when the worker has sent none for
    a second. The piggyback consumes no RNG
    and touches no sampling state, so reports stay byte-identical with
    or without it. *)

open Fmc

exception Lease_lost
(** Raised (internally) out of the heartbeat hook when the service
    fenced our lease; exposed for tests that drive the hook directly. *)

exception Rejected of string
(** The service refused the handshake (protocol version or campaign
    fingerprint mismatch, quarantined worker). Terminal: retrying cannot
    help. *)

type retry = {
  base_s : float;  (** first backoff sleep *)
  cap_s : float;  (** per-sleep ceiling *)
  max_attempts : int;  (** consecutive failed sessions before giving up *)
  budget_s : float;  (** total backoff sleep across the whole run *)
}

val default_retry : retry
(** base 0.2s, cap 10s, 10 attempts, 300s budget. *)

val next_backoff : Fmc_prelude.Rng.t -> retry -> prev:float -> float
(** One decorrelated-jitter draw: uniform in
    [\[base_s, max (1.5 * base_s) (3 * prev)\]], capped at [cap_s].
    Exposed so the jitter bounds are testable; {!run} feeds each sleep
    back as the next [prev]. *)

type config = {
  addr : Wire.addr;
  worker_name : string;
  heartbeat_every : int;  (** samples between heartbeats; 0 disables *)
  retry_delay_s : float;  (** poll delay when all shards are leased out *)
  connect_attempts : int;  (** TCP connect retries within one session *)
  io_deadline_s : float;  (** socket read/write deadline ({!Wire.conn}) *)
  retry : retry;  (** reconnect state-machine tuning *)
}

val default_config : addr:Wire.addr -> worker_name:string -> config
(** heartbeat every 100 samples, 0.5s retry, 20 connect attempts, 120s
    io deadline, {!default_retry}. *)

val run :
  ?obs:Fmc_obs.Obs.t ->
  ?causal:bool ->
  ?sample_budget:int ->
  ?inject:Ssf.inject ->
  ?on_reconnect:(attempt:int -> sleep_s:float -> reason:string -> unit) ->
  config ->
  fingerprint:string ->
  Engine.t ->
  Sampler.prepared ->
  seed:int ->
  int
(** Work until the service reports the campaign finished; returns
    the number of shard results this worker got accepted. [causal],
    [sample_budget], [inject] (the campaign's fault-model injector,
    default {!Ssf.disc_transient}) and [seed] must match the
    fingerprint's campaign (the fingerprint encodes them — a mismatch is
    rejected at hello).
    [on_reconnect] fires before each backoff sleep (CLI logging).
    Under [obs], counts wire bytes, [fmc_dist_reconnects_total], the
    [fmc_dist_reconnect_backoff_seconds] histogram, and inherits
    {!Campaign.run_shard}'s spans and tally metrics. Raises {!Rejected}
    on a handshake refusal and [Failure] once the reconnect attempt cap
    or time budget is exhausted. *)

val run_pool :
  ?obs:Fmc_obs.Obs.t ->
  ?causal:bool ->
  ?on_reconnect:(attempt:int -> sleep_s:float -> reason:string -> unit) ->
  config ->
  resolve:(Protocol.spec -> (Engine.t * Sampler.prepared * Ssf.inject, string) result) ->
  unit ->
  int
(** Pool mode ([faultmc worker --pool]): hello with
    {!Protocol.pool_fingerprint} and lease shards from whichever
    campaign the scheduler wants run, until it answers
    [No_work {finished = true}] (drained and told to exit). Each
    {!Protocol.Job} carries its campaign's {!Protocol.spec}; [resolve]
    turns a spec into the local engine, prepared sampler and fault-model
    injector (typically by elaborating the named benchmark) —
    resolutions are cached by fingerprint for the process lifetime, and
    a resolution [Error] tears the session down (the lease expires to
    another worker; a worker that can never resolve exhausts its
    reconnect budget and fails loudly). Seed and sample budget come from the spec itself.
    Returns the number of accepted shard results; shares {!run}'s
    reconnect machinery, metrics and terminal failures. *)

type fetch_error =
  | Fetch_timeout of float  (** waited this many seconds *)
  | Fetch_rejected of string
  | Fetch_unreachable of string
  | Fetch_protocol of string

val fetch_error_message : fetch_error -> string

val fetch_report :
  ?obs:Fmc_obs.Obs.t ->
  ?poll_s:float ->
  ?poll_cap_s:float ->
  ?timeout_s:float ->
  ?on_pending:(Protocol.status_entry -> unit) ->
  config ->
  fingerprint:string ->
  ((int * string) list * Campaign.quarantine_entry list * float, fetch_error) result
(** Poll the service until the campaign finishes; returns the
    per-shard tally blobs (ascending shard id), the quarantine log
    (sorted by global sample index) and the service's elapsed
    seconds — feed the blobs to {!Merge.report_of_blobs}. The poll
    interval starts at [poll_s] (default 0.25s) and backs off
    geometrically to [poll_cap_s] (default 2s); after [timeout_s]
    (default 600) of pending replies the result is [Fetch_timeout].
    The service answers a pending fetch with the campaign's
    {!Protocol.status_entry} (queue position, ETA); [on_pending]
    observes each such reply (progress display), and a [Cancelled]
    entry ends the wait as [Fetch_rejected]. All failures are typed
    ({!fetch_error}), never raised. *)

(** {2 Scheduler control clients}

    One-shot pool-scoped requests against a multi-campaign scheduler
    ([faultmc sched]); transport and protocol failures come back as
    [Error] strings, never exceptions. *)

type submit_reply =
  | Submit_queued of int  (** accepted at this queue position *)
  | Submit_cached  (** finished earlier — fetch the report right away *)
  | Submit_rejected of { retry_after_s : float; reason : string }
      (** admission control shed the submission; retry after the hint *)

val submit :
  ?obs:Fmc_obs.Obs.t -> config -> Protocol.spec -> (submit_reply, string) result

val sched_status :
  ?obs:Fmc_obs.Obs.t ->
  config ->
  fingerprint:string ->
  (Protocol.status_entry list, string) result
(** [""] lists every campaign in submission order. *)

val cancel :
  ?obs:Fmc_obs.Obs.t -> config -> fingerprint:string -> (bool * string, string) result
(** [(accepted, reason)] from the scheduler's ack. *)
