(* SplitMix64 (Steele, Lea, Flood 2014). Chosen because it is trivially
   seedable, splittable, and has no hidden global state. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

(* Shard substreams space their start states along a second Weyl sequence
   (a different odd constant than the per-draw gamma) and scramble with
   mix64, so shard k's stream is not a shifted window of shard j's: the
   start states land pseudo-randomly in the 2^64 state ring and the per-
   draw increment walks each stream from there. Shards of one campaign
   collide only if two start states come within (draw count x gamma) of
   each other, which for realistic campaign sizes has probability
   ~ n_draws / 2^64 per pair. *)
let shard_gamma = 0xd1342543de82ef95L

let substream ~seed ~shard =
  if shard < 0 then invalid_arg "Rng.substream: negative shard";
  let start =
    mix64 (Int64.add (mix64 seed) (Int64.mul shard_gamma (Int64.of_int (shard + 1))))
  in
  { state = start }

let copy t = { state = t.state }

let state t = t.state

let of_state s = { state = s }

let set_state t s = t.state <- s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask = Int64.max_int in
  let rec draw () =
    let r = Int64.to_int (Int64.logand (int64 t) mask) in
    let v = r mod bound in
    if r - v + (bound - 1) >= 0 then v else draw ()
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random mantissa bits. *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
