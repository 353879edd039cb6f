(** Declarative fault plans for {!Proxy} (DESIGN.md §11).

    A plan is an ordered list of fault clauses the proxy evaluates
    against each forwarded chunk (partitions: against each accept and
    chunk). Combined with a seed, a plan is a complete, replayable
    description of the injected faults: the proxy draws every decision
    from [Rng.substream]s of the seed, one per connection direction.

    Text grammar — one clause per line or [;]-separated, [#] comments:
    {v
    delay p=PROB min=SECONDS max=SECONDS   delay a chunk
    bitflip p=PROB                          flip one random payload bit
    truncate p=PROB                         forward a prefix, then sever
    dup p=PROB                              deliver a chunk twice
    drop p=PROB                             sever the connection
    partition every=SECONDS for=SECONDS     periodic full-partition window
    lie p=PROB                              adversarially mutate a result frame
    v}

    [lie] models a lying (not merely faulty) worker: the proxy
    reassembles protocol frames and, on a result frame ([Job_done]),
    rewrites the tally payload while recomputing
    the CRC-32 — the frame arrives intact by every transport check and
    only {!Fmc_audit}'s digest/quorum defenses can catch it. *)

type fault =
  | Delay of { prob : float; min_s : float; max_s : float }
  | Drop of { prob : float }
  | Truncate of { prob : float }
  | Bit_flip of { prob : float }
  | Duplicate of { prob : float }
  | Partition of { every_s : float; open_s : float }
  | Lie of { prob : float }

type t = { faults : fault list }

val empty : t
val is_empty : t -> bool

val fault_name : fault -> string
(** The grammar keyword ([delay], [drop], [truncate], [bitflip], [dup],
    [partition]) — also the key in {!Proxy.fault_counts}. *)

val parse : string -> (t, string) result
(** Parse the grammar above. Validates ranges: probabilities in [0, 1],
    [0 <= min <= max], [0 < for < every]. *)

val load : path:string -> (t, string) result

val to_string : t -> string
(** Canonical text form; [parse (to_string t)] round-trips. *)
