module N = Fmc_netlist.Netlist
module System = Fmc_cpu.System
module Arch = Fmc_cpu.Arch
module Rng = Fmc_prelude.Rng

type stats = {
  dff : N.node;
  group : string;
  bit : int;
  lifetime : float;
  contamination : float;
  memory_type : bool;
}

type t = { by_dff : (N.node, stats) Hashtbl.t; total : int; memory : int }

type config = {
  trials : int;
  horizon : int;
  lifetime_threshold : float;
  contamination_threshold : float;
}

let default_config = { trials = 3; horizon = 200; lifetime_threshold = 50.; contamination_threshold = 0.5 }

let group_count = List.length Arch.groups

let rec popcount acc x = if x = 0 then acc else popcount (acc + (x land 1)) (x lsr 1)

(* One injection trial: flip (group, bit) at [cycle], co-simulate vs golden,
   return (lifetime, contamination). [seen.(g)] accumulates every bit of
   group [g] (index into [Arch.groups]) that ever differed, so the
   contamination number is the popcount of that table less the injected
   bit itself. *)
let trial config golden ~group ~bit ~cycle =
  let gold = Golden.restore_at golden cycle in
  let fault = Golden.restore_at golden cycle in
  let st = System.state fault in
  Arch.set_group st group (Arch.get_group st group lxor (1 lsl bit));
  let seen = Array.make group_count 0 in
  let lifetime = ref config.horizon in
  (try
     for step = 1 to config.horizon do
       ignore (System.step gold);
       ignore (System.step fault);
       let gs = System.state gold and fs = System.state fault in
       if Arch.equal gs fs then begin
         lifetime := step;
         raise Exit
       end;
       for g = 0 to group_count - 1 do
         seen.(g) <- seen.(g) lor (Arch.get_group_at gs g lxor Arch.get_group_at fs g)
       done
     done
   with Exit -> ());
  let contamination = ref 0 in
  List.iteri
    (fun g (name, _) ->
      let bits = if name = group then seen.(g) land lnot (1 lsl bit) else seen.(g) in
      contamination := popcount !contamination bits)
    Arch.groups;
  (float_of_int !lifetime, float_of_int !contamination)

let characterize ?(config = default_config) net ~golden ~dffs ~rng =
  if config.trials <= 0 || config.horizon <= 0 then invalid_arg "Lifetime.characterize: bad config";
  let by_dff = Hashtbl.create (Array.length dffs) in
  let memory = ref 0 in
  let last_cycle = max 1 (Golden.halt_cycle golden - 1) in
  Array.iter
    (fun dff ->
      let group, bit = N.dff_group net dff in
      let lsum = ref 0. and csum = ref 0. in
      for _ = 1 to config.trials do
        let cycle = Rng.int_in rng 1 last_cycle in
        let l, c = trial config golden ~group ~bit ~cycle in
        lsum := !lsum +. l;
        csum := !csum +. c
      done;
      let lifetime = !lsum /. float_of_int config.trials in
      let contamination = !csum /. float_of_int config.trials in
      let memory_type =
        lifetime >= config.lifetime_threshold && contamination <= config.contamination_threshold
      in
      if memory_type then incr memory;
      Hashtbl.replace by_dff dff { dff; group; bit; lifetime; contamination; memory_type })
    dffs;
  { by_dff; total = Array.length dffs; memory = !memory }

let stats t dff = Hashtbl.find t.by_dff dff

let all t =
  let out = Hashtbl.fold (fun _ s acc -> s :: acc) t.by_dff [] in
  Array.of_list (List.sort (fun a b -> compare a.dff b.dff) out)

let memory_type t dff = match Hashtbl.find_opt t.by_dff dff with Some s -> s.memory_type | None -> false

let lifetime t dff = match Hashtbl.find_opt t.by_dff dff with Some s -> s.lifetime | None -> 0.

let memory_fraction t = if t.total = 0 then 0. else float_of_int t.memory /. float_of_int t.total
