type t = {
  program : Fmc_isa.Programs.t;
  st : Arch.t;
  imem : int array;
  dmem : int array;
  mutable cycle : int;
  mutable watchdog : int;  (* remaining step budget; negative = unlimited *)
  mutable on_step : (unit -> unit) option;  (* observability hook; not checkpointed *)
  mutable fetch_override : (pc:int -> int -> int) option;
      (* fault-injection hook on the fetch path; not checkpointed *)
}

exception Cycle_budget_exhausted of int

let () =
  Printexc.register_printer (function
    | Cycle_budget_exhausted cycle ->
        Some (Printf.sprintf "Fmc_cpu.System.Cycle_budget_exhausted(cycle %d)" cycle)
    | _ -> None)

let validate_dmem_size ~who size =
  (* Memory addresses are masked with [addr land (size - 1)] throughout the
     framework (RTL and gate level); any other size silently aliases. *)
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "%s: dmem_size %d is not a positive power of two (address masking would silently alias)"
         who size)

let create (program : Fmc_isa.Programs.t) =
  validate_dmem_size ~who:"System.create" program.Fmc_isa.Programs.dmem_size;
  let dmem = Array.make program.Fmc_isa.Programs.dmem_size 0 in
  List.iter (fun (a, v) -> dmem.(a) <- v land 0xffff) program.Fmc_isa.Programs.dmem_init;
  {
    program;
    st = Arch.create ();
    imem = program.Fmc_isa.Programs.imem;
    dmem;
    cycle = 0;
    watchdog = -1;
    on_step = None;
    fetch_override = None;
  }

let program t = t.program
let state t = t.st
let dmem t = t.dmem
let cycle t = t.cycle
let halted t = t.st.Arch.halted

let fetch t pc =
  let word = if pc >= 0 && pc < Array.length t.imem then t.imem.(pc) else 0 in
  match t.fetch_override with None -> word | Some f -> f ~pc word

let dmask t addr = addr land (Array.length t.dmem - 1)

let load t addr = t.dmem.(dmask t addr)
let store t addr v = t.dmem.(dmask t addr) <- v land 0xffff

let set_watchdog t budget =
  match budget with
  | None -> t.watchdog <- -1
  | Some n when n < 0 -> invalid_arg "System.set_watchdog: negative budget"
  | Some n -> t.watchdog <- n

let set_on_step t hook = t.on_step <- hook
let set_fetch_override t hook = t.fetch_override <- hook

let step t =
  if t.watchdog = 0 then raise (Cycle_budget_exhausted t.cycle);
  if t.watchdog > 0 then t.watchdog <- t.watchdog - 1;
  (match t.on_step with None -> () | Some f -> f ());
  let outcome = Model.step t.st ~fetch:(fetch t) ~load:(load t) ~store:(store t) in
  t.cycle <- t.cycle + 1;
  outcome

let run t ~max_cycles =
  let used = ref 0 in
  while (not (halted t)) && !used < max_cycles do
    ignore (step t);
    incr used
  done;
  !used

let run_to_cycle t target =
  if target < t.cycle then invalid_arg "System.run_to_cycle: target cycle is in the past";
  while t.cycle < target do
    ignore (step t)
  done

let advance_externally t = t.cycle <- t.cycle + 1

type checkpoint = { cp_cycle : int; cp_state : Arch.t; cp_dmem : int array }

let checkpoint t = { cp_cycle = t.cycle; cp_state = Arch.copy t.st; cp_dmem = Array.copy t.dmem }

let load_image t ~cycle ~st ~dmem =
  t.cycle <- cycle;
  Array.blit dmem 0 t.dmem 0 (Array.length t.dmem);
  List.iter (fun (name, _) -> Arch.set_group t.st name (Arch.get_group st name)) Arch.groups

let restore t cp = load_image t ~cycle:cp.cp_cycle ~st:cp.cp_state ~dmem:cp.cp_dmem
let copy_into ~src t = load_image t ~cycle:src.cycle ~st:src.st ~dmem:src.dmem

let checkpoint_cycle cp = cp.cp_cycle
let checkpoint_state cp = Arch.copy cp.cp_state

let observable_values t = List.map (fun a -> t.dmem.(dmask t a)) t.program.Fmc_isa.Programs.observable
