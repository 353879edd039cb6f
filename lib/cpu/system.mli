(** RTL-level full system: processor model + instruction/data memories,
    running a {!Fmc_isa.Programs.t} benchmark.

    Memories are behavioral (testbench-side), as in the paper's VCS setup;
    a checkpoint therefore bundles the architectural registers, the data
    memory image and the cycle number. Fetch from an address outside the
    program image returns 0, which decodes as HALT — a runaway faulty
    execution self-terminates. *)

type t

exception Cycle_budget_exhausted of int
(** Raised by {!step} (and therefore {!run} / {!run_to_cycle}) when the
    watchdog budget set via {!set_watchdog} runs out; carries the cycle at
    exhaustion. Used by the campaign runner to quarantine pathological
    samples instead of letting them monopolize a domain. *)

val validate_dmem_size : who:string -> int -> unit
(** Reject a data-memory size that is not a positive power of two with a
    clear [Invalid_argument] ([who] prefixes the message). Shared by every
    component that allocates a masked dmem image. *)

val create : Fmc_isa.Programs.t -> t
(** Fresh system at reset with [dmem_init] applied. Raises
    [Invalid_argument] when the benchmark's [dmem_size] is not a positive
    power of two — memory addresses are masked with
    [addr land (dmem_size - 1)] across the framework, which silently
    aliases for any other size. *)

val program : t -> Fmc_isa.Programs.t
val state : t -> Arch.t
(** The live architectural state (mutable; mutations take effect). *)

val dmem : t -> int array
(** The live data memory (mutable). *)

val cycle : t -> int
val halted : t -> bool

val fetch : t -> int -> int
val load : t -> int -> int
val store : t -> int -> int -> unit

val set_watchdog : t -> int option -> unit
(** [set_watchdog t (Some n)] arms a step budget: the next [n] calls to
    {!step} proceed normally, after which {!step} raises
    {!Cycle_budget_exhausted}. [None] disarms (the default). The budget is
    transient execution state — it is not part of a {!checkpoint}. Raises
    [Invalid_argument] on a negative budget. *)

val set_on_step : t -> (unit -> unit) option -> unit
(** Install (or clear) a per-step observability hook, invoked once at the
    start of every {!step} that passes the watchdog. Like the watchdog it
    is transient execution state: not part of a {!checkpoint}, and the
    default ([None]) costs a single branch per cycle. *)

val set_fetch_override : t -> (pc:int -> int -> int) option -> unit
(** Install (or clear) a fault-injection hook on the instruction fetch
    path: every fetch passes the raw instruction word through the hook
    (with the fetching [pc]) and executes the returned word instead —
    the ISS-level substrate for instruction skip/corrupt fault models.
    Like the watchdog it is transient execution state: not part of a
    {!checkpoint}, and the default ([None]) costs one branch per
    fetch. *)

val step : t -> Model.outcome
(** One cycle (no-op when halted, but still counts a cycle). *)

val run : t -> max_cycles:int -> int
(** Step until halted or the budget is exhausted; returns cycles consumed
    by this call. *)

val run_to_cycle : t -> int -> unit
(** Advance to an absolute cycle number. Raises [Invalid_argument] if the
    target is in the past. *)

val advance_externally : t -> unit
(** Count one cycle that was executed outside this system (the cross-level
    engine evaluates the injection cycle at gate level and writes the
    resulting state/memory back). *)

type checkpoint

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit
val checkpoint_cycle : checkpoint -> int
val checkpoint_state : checkpoint -> Arch.t
(** A copy — safe to inspect. *)

val copy_into : src:t -> t -> unit
(** Make the system's cycle, architectural state and data memory equal
    [src]'s, as [restore t (checkpoint src)] would, without allocating.
    The transient hooks (watchdog, step hook, fetch override) are left
    as they are. *)

val observable_values : t -> int list
(** Values at the benchmark's observable dmem addresses, in order. *)
