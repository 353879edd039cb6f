(** Gate-level full system: the {!Circuit} netlist driven cycle-by-cycle
    with the same behavioral memories as {!System}.

    Used for (a) the RTL-vs-gate co-simulation equivalence tests and (b) the
    single injection cycle of the cross-level engine, where the
    architectural state is transferred into the netlist registers, the
    cycle is evaluated at gate level, and the (possibly corrupted) next
    state is read back. *)

type t

val create : Circuit.t -> Fmc_isa.Programs.t -> t
(** The circuit can be shared across instances (the simulator state is
    per-[t]). Raises [Invalid_argument], naming the bit, when the
    combinational fan-in of [dmem_addr] reaches a [dmem_rdata] input:
    {!settle}, {!resettle} and the masking certificates all resolve the
    address before the read data. *)

val circuit : t -> Circuit.t
val sim : t -> Fmc_gatesim.Cycle_sim.t
val dmem : t -> int array
val cycle : t -> int
val halted : t -> bool

val load_arch : t -> Arch.t -> unit
(** Write an architectural state into the netlist registers. *)

val read_arch : t -> Arch.t
(** Read the netlist registers back into a fresh architectural state. *)

val settle : t -> unit
(** Drive [instr] from the current [pc], resolve the data-memory read
    (two-pass combinational evaluation), leaving all combinational values
    settled for probing — the pre-injection point of the cross-level
    engine. *)

val resettle : t -> Arch.t -> dmem:int array -> unit
(** Incremental {!settle}: the simulator must hold settled values (every
    gate equal to its fan-ins' function — e.g. a
    {!Fmc_gatesim.Cycle_sim.load_values} image of an earlier {!settle});
    afterwards it holds exactly what {!load_arch} of the given state
    followed by {!settle} against [dmem] would give, on every node. Only
    the fan-out of the register bits and of the [instr] / [dmem_rdata]
    input bits that differ is re-evaluated, in two rounds: registers and
    the fetched word, then the read data at the now-final address.
    [dmem] is the memory the read is answered from ({!settle} uses
    {!dmem}). *)

val step : t -> unit
(** {!settle}, commit the data-memory write if any, clock the registers. *)

val read_output : t -> string -> int
(** Settled value of a single-bit named output (e.g. ["data_viol"]). *)
