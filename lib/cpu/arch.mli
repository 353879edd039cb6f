(** Architectural register state shared by the two implementation levels.

    The RTL model ({!Model}) mutates a value of this type directly; the gate
    netlist ({!Circuit}) declares one flip-flop group per field with exactly
    the names and widths listed by {!groups}. That naming contract is what
    the cross-level engine uses to transfer state between levels
    (paper §5: restart RTL simulation from gate-level register errors). *)

type t = {
  mutable pc : int;
  regs : int array;  (** r0..r7 *)
  mutable mode : int;  (** 1 = privileged, 0 = user *)
  mutable epc : int;
  mutable cause : int;  (** last trap cause, 2 bits *)
  mutable halted : bool;
  mpu_base : int array;  (** 2 regions *)
  mpu_limit : int array;
  mpu_ctrl : int array;  (** 4-bit: enable, read, write, exec *)
}

val create : unit -> t
(** Reset state: everything 0, [mode = 1] (boot runs privileged). *)

val copy : t -> t
val equal : t -> t -> bool

val groups : (string * int) list
(** [(group name, bit width)] for every architectural register, in a fixed
    canonical order. The netlist uses the same names. *)

val get_group : t -> string -> int
(** Raises [Invalid_argument] on an unknown group. *)

val set_group : t -> string -> int -> unit
(** Values are masked to the group width. *)

val get_group_at : t -> int -> int
(** [get_group_at t i] is [get_group t name] for the [i]-th entry [name]
    of {!groups}, without the name lookup. Raises [Invalid_argument] outside
    [0 .. List.length groups - 1]. *)

val total_bits : int
(** Sum of group widths (the processor's flip-flop count). *)

val diff : t -> t -> string list
(** Names of groups whose values differ (for error-lifetime tracking). *)

type perm = Read | Write | Exec

val mpu_allows : t -> addr:int -> perm:perm -> bool
(** Pure MPU region check, ignoring the privilege mode — also used by the
    analytical evaluator on corrupted configurations. *)

val access_allowed : t -> addr:int -> perm:perm -> bool
(** [mpu_allows] or privileged. *)
