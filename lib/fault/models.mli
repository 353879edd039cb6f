(** The four built-in fault models.

    Each builder takes the parsed [k=v] parameter overrides and returns
    the configured model, or a human-readable message naming the
    offending parameter. All builders reject unknown and duplicate keys,
    so a typo never silently configures the default.

    Every built-in injector is deterministic and reads no random stream
    ([inj_reads_rng = false]): the same (engine, sample) pair always
    produces the same result, which is what keeps per-model campaigns
    bit-exact across domains, shards, resumes and distributed
    workers. The three injected models restore once per struck sample
    ({!Fmc.Engine.restore_run}) and are judged by the engine's own code:
    {!Fmc.Engine.errors} against the golden-cycle cache at the end of
    the injection window, then {!Fmc.Engine.masked} or
    {!Fmc.Engine.resume}. *)

val disc_transient : (string * string) list -> (Model.t, string) result
(** The paper's native model — radiation disc, direct SEUs plus
    gate-level voltage transients at the injection cycle. No
    parameters; its injector is {!Fmc.Ssf.disc_transient}, the engine's
    own path, so reports stay byte-identical to the pre-subsystem code.
    The only model masking certificates are sound for. *)

val seu_burst : (string * string) list -> (Model.t, string) result
(** Direct multi-bit SEU burst: up to [bits] (default 2, 1..64) of the
    disc's struck flip-flops take direct state flips at the injection
    cycle — no combinational transients, the SET→SEU RTL
    representation. The RTL run then resumes to completion. *)

val instr_skip : (string * string) list -> (Model.t, string) result
(** ISS-level instruction fault at the injection cycle:
    [mode=skip] (default) replaces the fetched instruction with NOP,
    [mode=corrupt] XORs [mask] (default 0xffff, 1..0xffff; only
    accepted with [mode=corrupt]) into the fetched word. The corrupted
    instruction executes for exactly one cycle; the run then resumes. *)

val double_strike : (string * string) list -> (Model.t, string) result
(** Temporal double strike: the sampled disc strikes at the injection
    cycle exactly like the native model (direct SEUs + transients),
    then strikes the same location again [gap] cycles later
    (default 2, 1..64) — the repeated-fault scenario of the SoK's
    multi-strike catalogue. *)
