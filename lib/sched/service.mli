(** The campaign service: [faultmc sched], and [faultmc serve] as the
    same service holding one pinned campaign (DESIGN.md §10).

    Accepts {!Fmc_dist.Wire} connections, reads a
    v{!Fmc_dist.Protocol.version} Hello whose fingerprint becomes the
    connection's scope — {!Fmc_dist.Protocol.pool_fingerprint} for pool
    workers and control clients, a campaign the service holds for
    campaign-scoped workers and report fetchers — and serves {!Sched}
    over it, one handler thread per connection, every scheduler call
    behind one mutex.

    The same rules apply to every connection. A Hello with another
    protocol version, an unknown campaign fingerprint or a quarantined
    worker name gets a terminal [Reject]; a worker whose circuit breaker
    is open gets [Retry_later]; corrupt frames and protocol errors are
    charged to the sender's breaker; with [require_workers] > 0 leasing
    pauses (the [fmc_dist_leasing_paused] gauge reads 1) while fewer
    healthy workers are connected. Under [obs] the service adds the
    [fmc_dist_bytes_{sent,received}_total] and
    [fmc_dist_frames_corrupt_total] counters to {!Sched}'s series.

    SIGTERM/SIGINT (when [handle_signals]) drain: leasing stops,
    in-flight shards finish and checkpoint, the WAL is compacted, and
    {!serve} returns. With [max_idle_s > 0] an idle service exits on its
    own. *)

type config = {
  addr : Fmc_dist.Wire.addr;
  state_dir : string option;
      (** WAL + campaign checkpoints live here; [None] uses a fresh
          directory that is removed when {!serve} returns *)
  sched : Sched.config;
  require_workers : int;
      (** minimum healthy connected workers before shards are leased;
          0 disables the floor. Below it, [Request_shard] answers
          [No_work {finished = false}] and [/readyz] answers 503. *)
  max_idle_s : float;
      (** exit ([Idle]) once the queue has been empty with no
          scheduling activity this long — or, with a pinned campaign,
          once it has been unfinished with no connection open this
          long; 0 = never *)
  io_deadline_s : float;
      (** per-connection read/write deadline: a peer stalling a frame
          longer than this is disconnected *)
  handle_signals : bool;  (** install SIGTERM/SIGINT drain handlers *)
}

val default_config : Fmc_dist.Wire.addr -> config
(** Ephemeral state, {!Sched.default_config}, no worker floor, no idle
    limit, 120 s io deadline, no signal handlers. *)

type campaign = {
  spec : Fmc_dist.Protocol.spec;
  checkpoint : string option;
      (** the campaign's {!Fmc_dist.Ckpt} file: resumed when it exists,
          rewritten after every accepted shard *)
  linger_s : float;
      (** once the campaign is finished, keep answering report fetches
          this long, and until no connection is open *)
}
(** The one campaign a [faultmc serve] process holds. *)

type stop_reason =
  | Drained  (** drain requested and nothing left in flight *)
  | Idle  (** [max_idle_s] elapsed *)
  | Finished  (** the pinned campaign finished and its linger passed *)

type outcome = {
  sv_reason : stop_reason;
  sv_report : ((int * string) list * Fmc.Campaign.quarantine_entry list * float) option;
      (** the pinned campaign's {!Sched.report}, once finished *)
}

type control = { request_drain : unit -> unit }
(** Handed to [on_ready]; lets tests trigger the SIGTERM path without
    signalling the process. *)

(** {2 Fleet view}

    The read-only surface [--http-port] mounts on its scrape endpoint —
    thunks over live service state, each thread-safe and cheap enough to
    call per scrape. Workers get trace/span ids stamped on every
    [Job]/[Assign] (pure functions of campaign fingerprint and shard)
    and their piggybacked {!Fmc_obs.Telemetry} absorbed into a fleet
    store; the view exposes the merged metrics and the stitched
    trace. *)

type health = {
  h_draining : bool;
  h_finished : bool;  (** nothing queued or running *)
  h_queue_depth : int;  (** campaigns queued or running *)
  h_shards_done : int;  (** over every campaign held *)
  h_shards_total : int;
  h_in_flight : int;  (** live shard leases across campaigns *)
  h_connected : int;  (** open connections (any state) *)
  h_healthy_workers : int;  (** connected workers without an open breaker *)
  h_breakers_open : int;
  h_leasing_paused : bool;  (** below the [require_workers] floor *)
  h_audits_pending : int;  (** audit re-executions due or in flight *)
  h_quarantined_workers : int;
  h_wal_torn : int;  (** torn WAL tails detected at the last startup *)
}

type worker_view = {
  w_name : string;
  w_breaker : Fmc_dist.Breaker.state;
  w_connections : int;  (** live post-Hello connections *)
  w_spans : int;  (** span summaries absorbed from this worker *)
  w_last_wall : float;  (** wall clock of the last absorbed telemetry; 0 if none *)
  w_trace_id : string;  (** last absorbed trace id; [""] if none *)
  w_quarantined : bool;  (** permanently banned by a result-audit verdict *)
  w_mismatches : int;  (** digest mismatches charged to this worker *)
}

type view = {
  vw_metrics : unit -> string;
      (** Prometheus text: the service registry merged with every
          worker's latest absorbed snapshot *)
  vw_health : unit -> health;
  vw_status : unit -> Fmc_dist.Protocol.status_entry list;
      (** every campaign, submission order — the [Status_req ""] answer *)
  vw_workers : unit -> worker_view list;  (** sorted by name *)
  vw_trace_json : unit -> string;
      (** stitched fleet trace: service spans on pid 1, each worker on
          its own track *)
}

val serve :
  ?obs:Fmc_obs.Obs.t ->
  ?on_ready:(control -> unit) ->
  ?on_view:(view -> unit) ->
  ?campaign:campaign ->
  config ->
  outcome
(** Blocks until drained, idle-expired or — with [campaign] — the
    pinned campaign is finished, [linger_s] has passed and no connection
    is open. A requested drain also ends a finished campaign's linger.
    [campaign] is submitted before the socket is bound: a
    corrupt or foreign checkpoint raises {!Sched.Bad_checkpoint} without
    ever listening. [on_view] fires once before binding, with the scrape
    surface above; [on_ready] once the socket is listening. Raises
    [Invalid_argument] on a negative [require_workers]. *)
