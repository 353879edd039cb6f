module System = Fmc_cpu.System
module Model = Fmc_cpu.Model
module Programs = Fmc_isa.Programs

type t = {
  program : Programs.t;
  checkpoints : System.checkpoint array;  (* checkpoints.(i) at cycle i * interval *)
  interval : int;
  target_cycle : int;
  halt_cycle : int;
  final_observables : int list;
}

let run ?(checkpoint_every = 16) (program : Programs.t) =
  if checkpoint_every <= 0 then invalid_arg "Golden.run: non-positive checkpoint interval";
  let sys = System.create program in
  let checkpoints = ref [ System.checkpoint sys ] in
  let target = ref (-1) in
  let steps = ref 0 in
  while (not (System.halted sys)) && !steps < program.Programs.max_cycles do
    let cycle_before = System.cycle sys in
    let outcome = System.step sys in
    let viol = outcome.Model.data_viol || outcome.Model.instr_viol || outcome.Model.priv_viol in
    if viol && !target < 0 then target := cycle_before;
    incr steps;
    if System.cycle sys mod checkpoint_every = 0 then checkpoints := System.checkpoint sys :: !checkpoints
  done;
  let halt_cycle = System.cycle sys in
  (match program.Programs.attack with
  | Some _ when !target < 0 ->
      failwith (Printf.sprintf "Golden.run: benchmark %s never raised its violation" program.Programs.name)
  | _ -> ());
  {
    program;
    checkpoints = Array.of_list (List.rev !checkpoints);
    interval = checkpoint_every;
    target_cycle = (if !target >= 0 then !target else halt_cycle);
    halt_cycle;
    final_observables = System.observable_values sys;
  }

let program t = t.program
let target_cycle t = t.target_cycle
let halt_cycle t = t.halt_cycle
let final_observables t = t.final_observables

let nearest_checkpoint t cycle =
  let idx = max 0 (min (cycle / t.interval) (Array.length t.checkpoints - 1)) in
  (* Guard against a final partial interval: checkpoints are at exact
     multiples, so index idx is at cycle idx * interval <= cycle. *)
  t.checkpoints.(idx)

(* The step hook is set before the replay window so the warm-up cycles
   count. *)
let restore_into ?on_step t sys cycle =
  if cycle < 0 then invalid_arg "Golden.restore_into: negative cycle";
  System.set_watchdog sys None;
  System.set_fetch_override sys None;
  System.set_on_step sys on_step;
  System.restore sys (nearest_checkpoint t cycle);
  System.run_to_cycle sys cycle

let restore_at ?on_step t cycle =
  if cycle < 0 then invalid_arg "Golden.restore_at: negative cycle";
  let sys = System.create t.program in
  restore_into ?on_step t sys cycle;
  sys

let state_at t cycle =
  let sys = restore_at t cycle in
  Fmc_cpu.Arch.copy (System.state sys)
