(** Shard lease table with epoch fencing (DESIGN.md §10): the one
    record of who is executing which shard, under which epoch, since
    when and until when.

    Each shard is [open] (nothing accepted, no live lease), [running]
    (live leases, nothing accepted) or [done] under the epoch whose
    result was accepted. Three kinds of lease run on it, each under a
    fresh, strictly higher epoch of that shard:

    - a {e first} lease ({!acquire}) takes an open shard;
    - a {e speculative} duplicate ({!speculate}) joins the sole lease of
      a straggling running shard — first valid completion wins;
    - an {e audit} re-run ({!audit}) takes a done shard, whose accepted
      result stays in place while it runs.

    Heartbeats extend a live lease's deadline; a missed deadline drops
    it ({!sweep_expired}), and a running shard whose last lease dropped
    is open again. {!complete} accepts exactly one completion per shard
    — a first or speculative lease, which makes the shard done and
    fences every other lease on it — and reports an audit lease's
    completion without touching the accepted result. A lease answers
    only its holder: {!heartbeat}, {!complete} and {!release} name the
    sender, and a live lease under the right epoch that another worker
    holds reads as stale, so no worker can settle the audit of its own
    shard by completing its auditor's lease.

    Time is injected ([now] parameters, same clock everywhere), making
    the fencing logic deterministic under test. Not thread-safe: the
    service serializes access under its state mutex. *)

type assignment = { shard : int; epoch : int; start : int; len : int }

type kind = First | Speculative | Audit

type lease = {
  kind : kind;
  epoch : int;
  worker : string;  (** the holder *)
  started : float;  (** [now] when the lease was issued *)
  deadline : float;  (** [now] at issue or at the last heartbeat, plus the ttl *)
}

type t

val create : plan:(int * int) array -> ttl:float -> t
(** [plan] is [Ssf.shard_plan]'s [(start, len)] array; [ttl] the
    heartbeat deadline in the [now] clock's units. Raises
    [Invalid_argument] on an empty plan or non-positive ttl. *)

val acquire : t -> now:float -> worker:string -> [ `Assign of assignment | `Finished | `Wait ]
(** First lease on the lowest open shard. Overdue leases are not
    expired here: call {!sweep_expired} first. [`Wait]: nothing open
    but the campaign is unfinished — every remaining shard is running. *)

val speculate : t -> now:float -> worker:string -> older_than:float -> assignment option
(** Speculative duplicate of the running shard whose sole lease is the
    oldest, provided that lease is more than [older_than] old and not
    held by [worker]. [None] if no shard qualifies. *)

val audit : t -> now:float -> worker:string -> due:(int -> bool) -> assignment option
(** Audit lease on the lowest done shard that has none and for which
    [due shard] holds. *)

val heartbeat : t -> now:float -> worker:string -> shard:int -> epoch:int -> [ `Ok | `Stale ]
(** Extend [worker]'s live lease under [epoch] to [now + ttl]. [`Stale]
    means the lease was lost (expired, released or fenced) or is not
    [worker]'s — the worker must abandon the shard. *)

val complete :
  t ->
  worker:string ->
  shard:int ->
  epoch:int ->
  [ `Accepted of lease | `Duplicate | `Stale | `Unknown ]
(** End [worker]'s live lease under [epoch], returning it: its [kind]
    says whether it was an audit re-run (the shard stays done under its
    accepted epoch) or the shard's one accepted result (the shard is now
    done, and its other leases fence as stale). [`Duplicate] for a
    re-delivery of the accepted epoch (safe to ack — the result is
    bit-identical by construction, and nothing changes); [`Stale] for an
    epoch with no live lease, or a live lease another worker holds;
    [`Unknown] for a shard outside the plan. *)

val sweep_expired : t -> now:float -> (int * string) list
(** Drop every lease of any kind whose deadline has passed; returns the
    expired [(shard, holder)] pairs so the service can count them and
    charge the heartbeat gap to the right worker's circuit breaker. *)

val release : t -> worker:string -> shard:int -> epoch:int -> unit
(** Drop [worker]'s live lease under [epoch] without expiring it (it
    sent a corrupt or digest-mismatched result). No-op if [worker] holds
    no such lease. *)

val release_worker : t -> worker:string -> unit
(** Drop every lease [worker] holds, of any kind — quarantine path. *)

val reopen : t -> shard:int -> unit
(** [done -> open], dropping its audit lease: the accepted result was
    invalidated (its producer got quarantined) and the shard must be
    honestly re-run. No-op unless the shard is done. *)

val force_complete : t -> shard:int -> unit
(** Mark a shard done without a lease — checkpoint restore only. *)

val finished : t -> bool
val completed : t -> int

val in_flight : t -> int
(** Shards with at least one live lease, audit leases included. *)

val total : t -> int
