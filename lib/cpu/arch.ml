module Isa = Fmc_isa.Isa

type t = {
  mutable pc : int;
  regs : int array;
  mutable mode : int;
  mutable epc : int;
  mutable cause : int;
  mutable halted : bool;
  mpu_base : int array;
  mpu_limit : int array;
  mpu_ctrl : int array;
}

let create () =
  {
    pc = 0;
    regs = Array.make 8 0;
    mode = 1;
    epc = 0;
    cause = 0;
    halted = false;
    mpu_base = Array.make 2 0;
    mpu_limit = Array.make 2 0;
    mpu_ctrl = Array.make 2 0;
  }

let copy t =
  {
    pc = t.pc;
    regs = Array.copy t.regs;
    mode = t.mode;
    epc = t.epc;
    cause = t.cause;
    halted = t.halted;
    mpu_base = Array.copy t.mpu_base;
    mpu_limit = Array.copy t.mpu_limit;
    mpu_ctrl = Array.copy t.mpu_ctrl;
  }

let equal a b =
  a.pc = b.pc && a.regs = b.regs && a.mode = b.mode && a.epc = b.epc && a.cause = b.cause
  && a.halted = b.halted && a.mpu_base = b.mpu_base && a.mpu_limit = b.mpu_limit
  && a.mpu_ctrl = b.mpu_ctrl

let groups =
  [ ("pc", 16) ]
  @ List.init 8 (fun i -> (Printf.sprintf "reg%d" i, 16))
  @ [
      ("mode", 1);
      ("epc", 16);
      ("cause", 2);
      ("halted", 1);
      ("mpu_base0", 16);
      ("mpu_limit0", 16);
      ("mpu_ctrl0", 4);
      ("mpu_base1", 16);
      ("mpu_limit1", 16);
      ("mpu_ctrl1", 4);
    ]

let total_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 groups

let width_of name =
  match List.assoc_opt name groups with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Arch: unknown register group %s" name)

let mask name v = v land ((1 lsl width_of name) - 1)

let get_group t name =
  match name with
  | "pc" -> t.pc
  | "mode" -> t.mode
  | "epc" -> t.epc
  | "cause" -> t.cause
  | "halted" -> if t.halted then 1 else 0
  | "mpu_base0" -> t.mpu_base.(0)
  | "mpu_base1" -> t.mpu_base.(1)
  | "mpu_limit0" -> t.mpu_limit.(0)
  | "mpu_limit1" -> t.mpu_limit.(1)
  | "mpu_ctrl0" -> t.mpu_ctrl.(0)
  | "mpu_ctrl1" -> t.mpu_ctrl.(1)
  | name when String.length name = 4 && String.sub name 0 3 = "reg" ->
      let i = Char.code name.[3] - Char.code '0' in
      if i < 0 || i > 7 then invalid_arg ("Arch: unknown register group " ^ name) else t.regs.(i)
  | name -> invalid_arg ("Arch: unknown register group " ^ name)

let set_group t name v =
  let v = mask name v in
  match name with
  | "pc" -> t.pc <- v
  | "mode" -> t.mode <- v
  | "epc" -> t.epc <- v
  | "cause" -> t.cause <- v
  | "halted" -> t.halted <- v = 1
  | "mpu_base0" -> t.mpu_base.(0) <- v
  | "mpu_base1" -> t.mpu_base.(1) <- v
  | "mpu_limit0" -> t.mpu_limit.(0) <- v
  | "mpu_limit1" -> t.mpu_limit.(1) <- v
  | "mpu_ctrl0" -> t.mpu_ctrl.(0) <- v
  | "mpu_ctrl1" -> t.mpu_ctrl.(1) <- v
  | name when String.length name = 4 && String.sub name 0 3 = "reg" ->
      let i = Char.code name.[3] - Char.code '0' in
      if i < 0 || i > 7 then invalid_arg ("Arch: unknown register group " ^ name)
      else t.regs.(i) <- v
  | name -> invalid_arg ("Arch: unknown register group " ^ name)

(* [get_group] by position in [groups]: no name lookup, for loops over
   every group. The by-name match above stays a separate copy because
   a table lookup from name to position costs over twice as much, and
   [get_group] sits on the per-sample restore and resettle paths. *)
let get_group_at t i =
  match i with
  | 0 -> t.pc
  | i when i >= 1 && i <= 8 -> t.regs.(i - 1)
  | 9 -> t.mode
  | 10 -> t.epc
  | 11 -> t.cause
  | 12 -> if t.halted then 1 else 0
  | 13 -> t.mpu_base.(0)
  | 14 -> t.mpu_limit.(0)
  | 15 -> t.mpu_ctrl.(0)
  | 16 -> t.mpu_base.(1)
  | 17 -> t.mpu_limit.(1)
  | 18 -> t.mpu_ctrl.(1)
  | i -> invalid_arg (Printf.sprintf "Arch: no register group at index %d" i)

let diff a b =
  List.filter_map
    (fun (name, _) -> if get_group a name <> get_group b name then Some name else None)
    groups

type perm = Read | Write | Exec

let perm_bit = function Read -> Isa.ctrl_read | Write -> Isa.ctrl_write | Exec -> Isa.ctrl_exec

let mpu_allows t ~addr ~perm =
  let bit = perm_bit perm in
  let region i =
    t.mpu_ctrl.(i) land Isa.ctrl_enable <> 0
    && t.mpu_base.(i) <= addr && addr <= t.mpu_limit.(i)
    && t.mpu_ctrl.(i) land bit <> 0
  in
  region 0 || region 1

let access_allowed t ~addr ~perm = t.mode = 1 || mpu_allows t ~addr ~perm
