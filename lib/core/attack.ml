module N = Fmc_netlist.Netlist
module Placement = Fmc_layout.Placement

type spatial = Uniform_cells of N.node array | Delta_cell of N.node

type t = {
  temporal : Dist.int_dist;
  spatial : spatial;
  radius : Dist.float_dist;
  width : Dist.float_dist;
}

let spatial_cells = function
  | Uniform_cells cells -> cells
  | Delta_cell c -> [| c |]

let pmf_spatial spatial =
  match spatial with
  | Uniform_cells cells ->
      let members = Hashtbl.create (Array.length cells) in
      Array.iter (fun c -> Hashtbl.replace members c ()) cells;
      let p = 1. /. float_of_int (Array.length cells) in
      fun cell -> if Hashtbl.mem members cell then p else 0.
  | Delta_cell c -> fun cell -> if c = cell then 1. else 0.

let block_around placement ~roots ~fraction =
  if fraction <= 0. || fraction > 1. then invalid_arg "Attack.block_around: fraction out of (0, 1]";
  let placed_roots = List.filter (Placement.is_placed placement) roots in
  if placed_roots = [] then invalid_arg "Attack.block_around: no placed root";
  let cx, cy =
    let n = float_of_int (List.length placed_roots) in
    let sx, sy =
      List.fold_left
        (fun (sx, sy) r ->
          let x, y = Placement.position placement r in
          (sx +. x, sy +. y))
        (0., 0.) placed_roots
    in
    (sx /. n, sy /. n)
  in
  let cells = Placement.cells placement in
  let keyed =
    Array.map
      (fun c ->
        let x, y = Placement.position placement c in
        (Float.hypot (x -. cx) (y -. cy), c))
      cells
  in
  Array.sort compare keyed;
  let keep = max 1 (int_of_float (ceil (fraction *. float_of_int (Array.length cells)))) in
  let block = Array.map snd (Array.sub keyed 0 (min keep (Array.length keyed))) in
  Array.sort compare block;
  block

let default _placement ~block =
  {
    temporal = Dist.Uniform_int (0, 49);
    spatial = Uniform_cells block;
    radius = Dist.Uniform_float (0.8, 2.2);
    width = Dist.Uniform_float (100., 350.);
  }

let validate t =
  Dist.validate_int t.temporal;
  (* Negative timing distances mean the shot lands after the target cycle —
     a wasted attempt under poor temporal accuracy, not an error. *)
  (match Dist.support_int t.temporal with
  | [] -> invalid_arg "Attack.validate: empty temporal support"
  | _ -> ());
  (match t.spatial with
  | Uniform_cells [||] -> invalid_arg "Attack.validate: empty target block"
  | Uniform_cells _ | Delta_cell _ -> ());
  let non_negative what (Dist.Uniform_float (lo, _) as d) =
    Dist.validate_float d;
    if lo < 0. then invalid_arg ("Attack.validate: negative " ^ what)
  in
  non_negative "radius" t.radius;
  non_negative "width" t.width
