(** Logic-level-ordered worklist over a netlist's combinational gates.

    The one event-driven traversal order of the gate-level code: the
    incremental resettle of {!Fmc_cpu.Netsys}, the pulse propagation of
    {!Fmc_gatesim.Transient} and the X-front chase of the masking
    certificates all drain one of these. {!pop} always returns a gate of
    the lowest pending logic level, and every gate's fan-ins sit at
    strictly lower levels, so a drain that only pushes fan-outs of the
    gate it popped visits each gate after all of its fan-ins are final —
    the same values a full topological sweep computes, restricted to the
    gates something reached.

    Within a level the order is last-in first-out, which keeps a drain a
    deterministic function of the pushes. A node is pushed at most once
    per round ({!reset} or {!rearm} starts a round). The structure is
    mutable scratch: one per simulator instance, never shared across
    domains. *)

type t

val create : Netlist.t -> t

val reset : t -> unit
(** Drop every pending node and start a new round. Call before each
    traversal, so a traversal that an exception cut short leaves nothing
    behind. *)

val rearm : t -> unit
(** Start a new round but keep pending nodes: nodes already pushed (and
    possibly popped) may be pushed again. *)

val push : t -> Netlist.node -> unit
(** Queue a combinational gate; a no-op if it was already pushed this
    round. *)

val push_fanouts : t -> Netlist.node -> unit
(** {!push} every combinational-gate fan-out of a node. *)

val pop : t -> Netlist.node
(** A pending gate of the lowest pending level, or [-1] when none is
    left. *)
