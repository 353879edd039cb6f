(** Deterministic fault-injection proxy (DESIGN.md §11).

    An in-process TCP/Unix-socket proxy that forwards bytes between
    clients (workers, report fetchers) and an upstream (the
    campaign service) while executing a {!Plan} against the stream. Every
    fault decision is drawn from an [Rng.substream] of the proxy seed —
    one stream per connection direction — so a (seed, plan) pair is a
    complete, replayable description of the injected chaos. (TCP chunk
    boundaries remain timing-dependent; what the chaos suite asserts is
    invariance of the merged campaign report, which holds regardless.)

    Faults: [delay] sleeps before forwarding; [bitflip] flips one
    payload bit (downstream the CRC layer flags the frame); [truncate]
    forwards a prefix then severs; [dup] forwards a chunk twice
    (desynchronizing the stream); [drop] severs outright; [partition]
    opens a periodic window during which new connections are refused
    and live ones severed. Severing shuts both sockets down before
    closing them, so the client and the upstream both see the
    connection end at once.

    Threading: one accept thread plus two pump threads per connection;
    {!stop} joins the accept thread and severs everything live. *)

type t

val start :
  ?obs:Fmc_obs.Obs.t ->
  ?on_event:(string -> unit) ->
  listen:Fmc_dist.Wire.addr ->
  upstream:Fmc_dist.Wire.addr ->
  plan:Plan.t ->
  seed:int64 ->
  unit ->
  t
(** Bind [listen], start forwarding to [upstream]. [on_event] receives
    one line per injected fault
    ([t=SECONDS conn=N dir=up|down fault=NAME ...] — the chaos event
    log); it is called from pump threads and must be thread-safe. Under
    [obs], counts [fmc_chaos_faults_total] / [fmc_chaos_connections_total]
    and wraps each pump in a ["chaos"] span. *)

val addr : t -> Fmc_dist.Wire.addr
(** The address clients should dial (the [listen] argument). *)

val fault_counts : t -> (string * int) list
(** Injected faults by {!Plan.fault_name} keyword, sorted. *)

val connections : t -> int
(** Connections accepted so far. *)

val stop : t -> unit
(** Stop accepting, sever every live connection, release the socket. *)
