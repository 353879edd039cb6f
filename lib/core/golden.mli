(** RTL-level golden run with checkpoints (paper §5.1).

    One complete fault-free run per benchmark: dumps register+memory
    checkpoints at fixed intervals (so each fault-attack run restarts at the
    nearest one instead of from reset), detects the target cycle [Tt] (the
    cycle the malicious access is attempted, i.e. the first assertion of the
    data-violation responding signal) and records the final observable
    values against which attack outcomes are judged. *)

type t

val run : ?checkpoint_every:int -> Fmc_isa.Programs.t -> t
(** Raises [Failure] if the benchmark declares an attack but the golden run
    never raises the data violation (a broken benchmark). Default
    checkpoint interval: 16 cycles. *)

val program : t -> Fmc_isa.Programs.t

val target_cycle : t -> int
(** [Tt]. For benchmarks without an attack (synthetic), the halt cycle. *)

val halt_cycle : t -> int

val final_observables : t -> int list

val restore_at : ?on_step:(unit -> unit) -> t -> int -> Fmc_cpu.System.t
(** A fresh system advanced to exactly the given cycle via the nearest
    checkpoint. [on_step] (an observability hook, see
    {!Fmc_cpu.System.set_on_step}) is installed before the replay window,
    so it also counts the warm-up cycles and stays armed on the returned
    system for any later resume. Raises [Invalid_argument] on a negative
    cycle. *)

val restore_into : ?on_step:(unit -> unit) -> t -> Fmc_cpu.System.t -> int -> unit
(** {!restore_at} into an existing system of the same program instead of
    a fresh one: its watchdog and fetch override are cleared, [on_step]
    replaces its step hook, and it ends in exactly the state
    [restore_at] returns. Raises [Invalid_argument] on a negative
    cycle. *)

val state_at : t -> int -> Fmc_cpu.Arch.t
(** Architectural state at the start of a cycle (copy). *)
