module N = Fmc_netlist.Netlist
module Area = Fmc_layout.Area

type plan = { registers : N.node array; resilience : float; area_factor : float }

let critical_registers net report ~coverage =
  let prefix = Ssf.contribution_coverage report ~fraction:coverage in
  prefix
  |> List.map (fun ((group, bit), _) -> (N.register_group net group).(bit))
  |> List.sort_uniq compare
  |> Array.of_list

let default_plan net report ~coverage =
  { registers = critical_registers net report ~coverage; resilience = 10.; area_factor = 3. }

type evaluation = {
  plan : plan;
  baseline : Ssf.report;
  hardened : Ssf.report;
  ssf_reduction : float;
  area_overhead : float;
  register_fraction : float;
}

let evaluate engine prepared ~plan ~samples ~seed =
  let baseline = Ssf.estimate engine prepared ~samples ~seed in
  let set = Hashtbl.create (Array.length plan.registers) in
  Array.iter (fun d -> Hashtbl.replace set d ()) plan.registers;
  let hardened_pred d = Hashtbl.mem set d in
  let hardened =
    Ssf.estimate
      ~inject:(Ssf.disc_ablation ~hardened:hardened_pred ~resilience:plan.resilience ())
      engine prepared ~samples ~seed
  in
  let net = (Engine.circuit engine).Fmc_cpu.Circuit.net in
  let extra = Area.hardened_overhead net ~hardened:plan.registers ~factor:plan.area_factor in
  let area_overhead = extra /. Area.total net in
  let register_fraction =
    float_of_int (Array.length plan.registers) /. float_of_int (Array.length (N.dffs net))
  in
  let ssf_reduction =
    if hardened.Ssf.ssf <= 0. then infinity else baseline.Ssf.ssf /. hardened.Ssf.ssf
  in
  { plan; baseline; hardened; ssf_reduction; area_overhead; register_fraction }
