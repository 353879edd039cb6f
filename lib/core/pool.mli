(** The process's helper domains for {!Ssf.run_samples}: spawned on
    first use, kept for the life of the process, blocked on a condition
    variable while idle. The pool is entered from one caller at a time. *)

val acquire : unit -> bool
(** Become the pool's caller; [false] (without waiting) when another
    domain or thread holds it. *)

val release : unit -> unit
(** Give the pool up; only after a successful {!acquire}. *)

val helpers : int -> int
(** [helpers n] spawns helpers until [n] exist (or the runtime refuses
    more) and returns how many of the first [n] are available. The first
    spawn divides the minor heap size by the number of domains. Holder
    only. *)

val run : helpers:int -> (int -> unit) -> unit
(** [run ~helpers job]: one round. The caller runs [job 0] and helper
    [i < helpers] runs [job (i + 1)], each on its own domain; returns
    once all of them are done (also when [job 0] raises). [job] must
    catch its own exceptions: a helper ignores them. Holder only, with
    [helpers] at most what {!helpers} returned. *)
