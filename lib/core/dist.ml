module Rng = Fmc_prelude.Rng
module Wdist = Fmc_prelude.Wdist

type int_dist =
  | Uniform_int of int * int
  | Delta_int of int
  | Discrete of int array * float array

type float_dist = Uniform_float of float * float

let validate_int = function
  | Uniform_int (lo, hi) -> if hi < lo then invalid_arg "Dist: empty uniform range"
  | Delta_int _ -> ()
  | Discrete (values, weights) ->
      if Array.length values = 0 || Array.length values <> Array.length weights then
        invalid_arg "Dist: ill-formed discrete distribution";
      ignore (Wdist.create weights)

let sample_int d rng =
  match d with
  | Uniform_int (lo, hi) -> Rng.int_in rng lo hi
  | Delta_int v -> v
  | Discrete (values, weights) -> values.(Wdist.sample (Wdist.create weights) rng)

let pmf_int d v =
  match d with
  | Uniform_int (lo, hi) -> if v >= lo && v <= hi then 1. /. float_of_int (hi - lo + 1) else 0.
  | Delta_int x -> if v = x then 1. else 0.
  | Discrete (values, weights) ->
      let w = Wdist.create weights in
      let total = ref 0. in
      Array.iteri (fun i x -> if x = v then total := !total +. Wdist.pmf w i) values;
      !total

let support_int = function
  | Uniform_int (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i)
  | Delta_int v -> [ v ]
  | Discrete (values, weights) ->
      let w = Wdist.create weights in
      Array.to_list values
      |> List.filteri (fun i _ -> Wdist.pmf w i > 0.)
      |> List.sort_uniq compare

let validate_float (Uniform_float (lo, hi)) =
  if not (Float.is_finite lo && Float.is_finite hi && lo <= hi) then
    invalid_arg "Dist: ill-formed float range"

let sample_float (Uniform_float (lo, hi)) rng =
  if hi <= lo then lo else lo +. Rng.float rng (hi -. lo)
