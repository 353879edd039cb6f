(** Campaign service core (DESIGN.md §10): durable submission queue,
    per-campaign lease tables, round-robin shard dispatch, report
    caching by campaign fingerprint, result auditing, and per-worker
    health.

    State lives under one directory: [<dir>/wal/] holds the {!Wal}
    segments describing the queue (submit/finished/parked/cancelled/
    quarantined, all idempotent), [<dir>/campaigns/<md5>.ckpt] the
    per-campaign {!Fmc_dist.Ckpt} progress written after every accepted
    shard. {!create} recovers both after [kill -9]: the WAL replay
    rebuilds the queue in submission order (counted on
    [fmc_sched_recoveries_total]), checkpoints reattach finished
    shards, and the log is compacted to a fresh tear-free segment.

    Like {!Fmc_dist.Lease}, nothing here reads the wall clock ([now] is
    always injected) and nothing takes locks — the {!Service} wraps
    every call in its connection-handling mutex. Under [obs] the core
    exports the [fmc_sched_*] queue series, the [fmc_dist_*] lease,
    heartbeat and breaker series with the
    [fmc_dist_shard_roundtrip_seconds] histogram, and the [fmc_audit_*]
    series. *)

open Fmc
module Protocol = Fmc_dist.Protocol
module Lease = Fmc_dist.Lease
module Breaker = Fmc_dist.Breaker

type config = {
  queue_depth : int;
      (** max campaigns queued or running before submissions are
          rejected; 0 disables admission control *)
  ttl_s : float;  (** shard lease lifetime without a heartbeat *)
  wall_budget_s : float;
      (** a campaign running (wall clock since its first lease) longer
          than this is parked — it stops consuming the pool but the
          service lives on; 0 disables *)
  retry_after_s : float;  (** resubmission hint carried by rejections *)
  audit_rate : float;
      (** fraction of accepted shards re-executed on a different worker
          and digest-compared ({!Fmc_audit.Audit}, DESIGN.md §16).
          Selection is a pure function of each campaign's
          fingerprint-derived seed — restart-stable across [kill -9].
          0 disables. *)
  speculate_factor : float;
      (** duplicate a leased shard onto an idle worker once its lease age
          exceeds this multiple of the fleet per-shard EWMA; first valid
          completion wins, the loser fences. 0 disables. *)
  breaker : Breaker.config;
      (** per-worker circuit breaker: lease expiries, undecodable or
          digest-mismatched results, and (via {!note_failure}) corrupt
          frames count as failures *)
}

val default_config : config
(** depth 16, ttl 30s, no wall budget, retry-after 5s, audit and
    speculation off, {!Breaker.default_config}. *)

type checkpoint_error =
  | Unreadable of string  (** corrupt, truncated or of another format version *)
  | Foreign_campaign  (** written for a different campaign fingerprint *)

exception Bad_checkpoint of string * checkpoint_error
(** [(path, why)]: a checkpoint passed to {!submit} cannot be resumed. *)

type t

val create : ?obs:Fmc_obs.Obs.t -> config -> dir:string -> now:float -> t
(** Open (creating if needed) the state directory, replay + compact the
    WAL, reattach campaign checkpoints (an unreadable one re-runs its
    campaign from scratch). *)

val submit :
  t ->
  now:float ->
  ?checkpoint:string ->
  Protocol.spec ->
  [ `Queued of int  (** accepted (or already queued) at this position *)
  | `Cached  (** finished earlier — the report is ready to fetch *)
  | `Rejected of float  (** queue full; retry after this many seconds *)
  | `Invalid of string  (** malformed spec (non-positive samples/shard) *) ]
(** [checkpoint] keeps a new campaign's progress at that path instead
    of under the state directory, resuming from it when the file exists
    and adopting the quarantine list it carries. The path is not
    recorded in the WAL: it suits a service whose state directory lives
    only as long as the process ([faultmc serve]). Raises
    {!Bad_checkpoint} — before anything is committed — when that file
    is unreadable or belongs to another campaign. *)

val cancel : t -> fingerprint:string -> [ `Cancelled | `Already_finished | `Unknown ]
(** Cancelled campaigns stop receiving leases and drop in-flight results;
    resubmitting the same spec revives them from scratch. *)

val holds : t -> fingerprint:string -> bool
(** The campaign was submitted (in any phase). *)

val next_job :
  ?alone:bool ->
  t ->
  now:float ->
  worker:string ->
  scope:string ->
  [ `Job of Protocol.spec * Lease.assignment
  | `Wait  (** nothing leasable right now — poll again *)
  | `Drained
    (** stop asking: a pool connection while draining, or the scoped
        campaign is finished or cancelled *)
  | `Banned  (** the worker is quarantined: refuse it permanently *) ]
(** [scope] is the connection's Hello fingerprint:
    {!Protocol.pool_fingerprint} draws round-robin from every active
    campaign; a concrete fingerprint — one the service {!holds}, as the
    Hello check guarantees; [Not_found] otherwise — serves only that
    campaign, and answers [`Wait] while draining, since the campaign
    will resume under the next service. Overdue leases of every kind
    are expired on the way (counted on [fmc_dist_leases_expired_total]
    and charged to their holder's breaker). With [audit_rate] > 0, a
    campaign with no open shard may still hand out audit leases on done
    shards, to a worker other than the shard's producers unless [alone]
    (default false) says it is the only healthy worker connected; with
    [speculate_factor] > 0, the oldest straggling shard without a
    duplicate may be speculatively duplicated. *)

val heartbeat :
  t ->
  now:float ->
  worker:string ->
  fingerprint:string ->
  shard:int ->
  epoch:int ->
  [ `Ok | `Stale ]

val complete :
  t ->
  now:float ->
  fingerprint:string ->
  shard:int ->
  epoch:int ->
  worker:string ->
  digest:string option ->
  tally:string ->
  quarantined:Campaign.quarantine_entry list ->
  [ `Accepted
  | `Duplicate
  | `Stale
  | `Unknown
  | `Invalid of string
  | `Mismatch  (** the carried digest disagrees with the payload *)
  | `Audited of string  (** an audit re-execution landed (reason text) *) ]
(** [`Accepted] persists the campaign checkpoint before returning and
    finalizes the campaign (WAL "finished" record, report cached) when
    it was the last shard and no audit is pending. [`Invalid]: the tally
    blob does not decode — refused without consuming the shard's one
    completion. [digest] is the worker's carried digest (if any); it is
    always recomputed server-side, and a disagreement is a [`Mismatch]
    strike against [worker] (three strikes quarantine it). A completion
    under an audit lease settles the audit instead of the shard; a
    quorum verdict quarantines the minority worker, drops every lease it
    holds and invalidates its unvindicated shards across every active
    campaign. *)

(** {2 Worker health} *)

val admit : t -> now:float -> worker:string -> [ `Ok | `Banned | `Parked of float ]
(** May [worker] be served? [`Parked cooldown]: its breaker is open for
    that many more seconds. *)

val is_banned : t -> worker:string -> bool
(** Quarantined by an audit verdict (or three digest mismatches) —
    durable across restarts via the WAL and the checkpoints. *)

val note_failure : t -> now:float -> worker:string -> float
(** Charge a failure (corrupt frame, protocol error) to [worker]'s
    breaker; returns its remaining cooldown (0 unless it is open). *)

val healthy : t -> now:float -> worker:string -> bool
(** [worker]'s breaker is not open. *)

type worker_health = { wh_breaker : Breaker.state; wh_banned : bool; wh_mismatches : int }

val worker_health : t -> now:float -> (string * worker_health) list
(** Every worker the service has admitted or charged, unordered. *)

(** {2 Reports and status} *)

val report :
  t ->
  fingerprint:string ->
  ((int * string) list * Campaign.quarantine_entry list * float) option
(** The finished campaign's (shard blobs ascending, quarantine log by
    sample index, start-to-finish seconds); [None] until finished. *)

val status : t -> now:float -> fingerprint:string -> Protocol.status_entry list
(** [""] lists every campaign in submission order; a concrete
    fingerprint yields one entry, or [] if unknown. ETAs combine the
    pool {!Fmc_obs.Rate} with the backlog queued ahead. *)

type summary = {
  sm_queue_depth : int;  (** campaigns queued or running *)
  sm_shards_done : int;  (** over every campaign held *)
  sm_shards_total : int;
  sm_in_flight : int;  (** shards with a live lease, audit leases included *)
  sm_audits_pending : int;  (** audit re-executions due or in flight *)
  sm_breakers_open : int;
  sm_banned : int;  (** quarantined workers *)
  sm_wal_torn : int;  (** torn WAL tails detected at startup *)
}

val summary : t -> now:float -> summary

(** {2 Lifecycle} *)

val sweep : t -> now:float -> unit
(** Expire overdue leases and park campaigns over their wall budget —
    the service calls this on its select tick. *)

val drain : t -> unit
(** Stop issuing leases ({!next_job} answers [`Drained] to the pool and
    [`Wait] to an unfinished campaign's own workers); in-flight shards
    and audits still heartbeat and complete. *)

val draining : t -> bool

val in_flight : t -> int
(** Shards with a live lease (audit leases included) in active
    campaigns. *)

val idle : t -> bool
(** No campaign is queued or running (finished/parked/cancelled only). *)

val last_activity : t -> float
(** [now] of the most recent submit/lease/heartbeat/complete — the
    idle-exit clock. *)

val shutdown : t -> unit
(** Flush and compact the WAL to a single segment of the final state. *)
