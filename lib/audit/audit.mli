(** Untrusted-worker defense for distributed campaigns.

    Two mechanisms, run by the campaign service ([Fmc_sched]):

    - {b Result digests} ({!Check.result_digest}): every shard result
      carries an MD5 digest over its canonical tally encoding plus its
      quarantine entries, computed worker-side and recomputed on accept.
      A mismatch is a corrupt frame, charged to the worker's breaker.
    - {b Seeded audits}: a restart-stable fraction of accepted shards
      (drawn from [Rng.substream], zero engine-stream randomness) is
      re-executed by a different worker. Digest disagreement triggers a
      third, arbitrating execution; the minority worker is quarantined
      and its unaudited accepted shards invalidated.

    This module keeps only the verdict bookkeeping: which accepted
    shards are due, passed or settled, who executed them and with which
    digest. The re-executions themselves are audit leases in the
    campaign's [Fmc_dist.Lease] table, with its epochs, deadlines and
    fencing (DESIGN.md §10).

    Pure state machine: no clock, threads or I/O. The caller holds its
    own lock around every call. *)

(** One execution of a shard: who ran it, what digest they reported. *)
type exec = { ax_worker : string; ax_digest : string }

type config = {
  rate : float;  (** fraction of accepted shards to audit, in [0,1] *)
  seed : int64;  (** selection seed, derived from the campaign fingerprint *)
}

type t

val selected_pure : rate:float -> seed:int64 -> shard:int -> bool
(** The bare selection predicate: is [shard] audited under this (rate,
    seed)? Pure and restart-stable; [create]/[restore] use the same
    draw, so a resumed service audits exactly the same shards. *)

val create : config -> nshards:int -> t
(** Raises [Invalid_argument] if [rate] is outside [0,1]. *)

val rate : t -> float
val selected : t -> shard:int -> bool

val note_accept : t -> shard:int -> worker:string -> digest:string -> bool
(** Record the primary (first accepted) execution of [shard]. Returns
    [true] iff the shard is selected for audit — it is now due for
    re-execution by a different worker. Re-noting a shard (after
    {!invalidate}) replaces the primary and re-draws the same
    selection. *)

val due : t -> shard:int -> worker:string -> allow_self:bool -> bool
(** Is [shard] due for an audit execution by [worker] — one that has
    not already executed it? [allow_self] lifts the different-worker
    requirement (used when the fleet has only one live worker, where an
    audit still catches nondeterminism if not collusion). A due shard
    stays due while its audit lease runs. *)

type verdict = {
  vd_liars : string list;
      (** minority executors to quarantine ("" entries are dropped) *)
  vd_replace : bool;
      (** the primary blob was the lie: the arriving (arbiter's) result
          is the honest one and must replace it *)
}

val complete :
  t ->
  shard:int ->
  worker:string ->
  digest:string ->
  [ `Pass  (** re-execution matched the primary *)
  | `Dispute  (** two executions disagree; lease a third to arbitrate *)
  | `Verdict of verdict  (** quorum reached *) ]
(** Record [worker]'s audit execution of [shard], whose audit lease just
    completed. Raises [Invalid_argument] if the shard is not due. *)

val invalidate : t -> shard:int -> unit
(** Forget everything about [shard] (its primary came from a liar); the
    caller reopens the shard's lease for honest re-execution. *)

val victims : t -> worker:string -> int list
(** Shards whose accepted primary came from [worker] and which no audit
    has yet vindicated — exactly the set to invalidate when [worker] is
    quarantined. Sorted ascending. *)

val pending : t -> int
(** Audits due, in flight or not. The campaign is not finished (reports must
    not be served) until this reaches zero. *)

val finished : t -> bool

(** Durable form for checkpoints: one entry per accepted shard. *)
type entry = { au_shard : int; au_worker : string; au_digest : string; au_passed : bool }

val entry : t -> shard:int -> entry option
(** [shard]'s entry, [None] until a primary is noted (or after
    {!invalidate}): what a checkpoint delta records for one accepted
    shard or audit pass. *)

val export : t -> entry list
(** Every {!entry}, sorted by shard. Audit leases live in the lease
    table and are not persisted — on restart a selected, unvindicated
    shard is simply due again. *)

val restore : config -> nshards:int -> entry list -> t

module Check : sig
  val result_digest : tally:string -> quarantined:Fmc.Campaign.quarantine_entry list -> string
  (** The canonical shard-result digest: MD5 hex over the tally's
      canonical encoding ([Ssf.Tally.to_string]) followed by each
      quarantine entry's canonical line. Worker and service compute
      this identically; it is what audits compare. *)
end
