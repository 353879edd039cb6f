(** Two-valued cycle-accurate simulation of a frozen netlist.

    The per-cycle protocol is:
    + drive primary inputs ({!set_input} / {!set_input_bus});
    + {!eval_comb} to settle combinational values;
    + read outputs / probe nodes;
    + {!latch} to clock every flip-flop ([Q <- value at D]).

    {!step} performs eval+latch. Register state is exposed both as a raw
    per-flip-flop snapshot (for checkpoints) and by register group name (for
    the RTL/netlist state mapping of the cross-level engine). *)

type t

val create : Fmc_netlist.Netlist.t -> t
(** Registers start at their declared init values; inputs at 0. *)

val netlist : t -> Fmc_netlist.Netlist.t

val set_input : t -> Fmc_netlist.Netlist.node -> bool -> unit
(** Raises [Invalid_argument] if the node is not a primary input. *)

val set_input_bus : t -> Fmc_netlist.Netlist.node array -> int -> unit
(** LSB-first. *)

val eval_comb : t -> unit

val value : t -> Fmc_netlist.Netlist.node -> bool
(** Settled value after {!eval_comb} (a flip-flop node reads its stored Q;
    an input reads its driven value). *)

(** {2 Incremental evaluation}

    Starting from settled values, change some primary inputs or stored
    flip-flop bits with {!drive} and re-settle with {!propagate}: only the
    gates downstream of a changed node are re-evaluated, and every node
    ends with the value a full {!eval_comb} would give it. *)

val drive : t -> Fmc_netlist.Worklist.t -> Fmc_netlist.Netlist.node -> bool -> unit
(** Set a primary input or a flip-flop's stored bit; if the value changed,
    queue the node's gate fan-outs. Raises [Invalid_argument] on any other
    node kind. *)

val drive_bus : t -> Fmc_netlist.Worklist.t -> Fmc_netlist.Netlist.node array -> int -> unit
(** {!drive} each node of a bus, LSB-first. *)

val propagate : t -> Fmc_netlist.Worklist.t -> unit
(** Drain the worklist: re-evaluate each queued gate in level order and
    queue the fan-outs of every gate whose value changed. Exact when the
    values were settled before the {!drive} calls that filled the
    worklist. *)

val save_values : t -> Bytes.t
(** A copy of every node's value, one byte per node (['\000'] false,
    ['\001'] true). *)

val load_values : t -> Bytes.t -> unit
(** Overwrite every node's value from a {!save_values} image of a
    simulator of the same netlist. Raises [Invalid_argument] on a length
    mismatch. *)

val read_bus : t -> Fmc_netlist.Netlist.node array -> int

val latch : t -> unit
(** Clock edge: every flip-flop stores the settled value of its D node.
    Assumes {!eval_comb} ran since the last input change. *)

val step : t -> unit

val flip : t -> Fmc_netlist.Netlist.node -> unit
(** Invert a flip-flop's stored bit (direct SEU). Raises [Invalid_argument]
    on a non-flip-flop node. *)

val read_group : t -> string -> int
(** Current value of a register group as an unsigned integer. *)

val write_group : t -> string -> int -> unit

val snapshot : t -> bool array
(** Stored bits of all flip-flops, indexed like [Netlist.dffs]. *)

val restore : t -> bool array -> unit
(** Raises [Invalid_argument] on a length mismatch. *)

val reset : t -> unit
(** Back to declared init values. *)
