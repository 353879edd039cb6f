type t = { len : int; words : int64 array }

let bits_per_word = 64

let words_for len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (words_for len) 0L }

let length v = v.len

let check_index v i op =
  if i < 0 || i >= v.len then invalid_arg (Printf.sprintf "Bitvec.%s: index %d out of [0, %d)" op i v.len)

let get v i =
  check_index v i "get";
  Int64.logand (Int64.shift_right_logical v.words.(i / bits_per_word) (i mod bits_per_word)) 1L <> 0L

let set v i b =
  check_index v i "set";
  let w = i / bits_per_word and o = i mod bits_per_word in
  let mask = Int64.shift_left 1L o in
  if b then v.words.(w) <- Int64.logor v.words.(w) mask
  else v.words.(w) <- Int64.logand v.words.(w) (Int64.lognot mask)

let copy v = { len = v.len; words = Array.copy v.words }

(* Bits beyond [len] in the last word are kept at zero by every operation, so
   equality and popcount can work word-wise. *)
let equal a b = a.len = b.len && a.words = b.words

(* Inlined so that callers pass the word unboxed. *)
let[@inline] popcount64 x =
  (* SWAR popcount. *)
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let popcount v = Array.fold_left (fun acc w -> acc + popcount64 w) 0 v.words

let popcount_and a b =
  if a.len <> b.len then invalid_arg "Bitvec.popcount_and: length mismatch";
  let count = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    count := !count + popcount64 (Int64.logand a.words.(i) b.words.(i))
  done;
  !count

let logand a b =
  if a.len <> b.len then invalid_arg "Bitvec.logand: length mismatch";
  { len = a.len; words = Array.init (Array.length a.words) (fun i -> Int64.logand a.words.(i) b.words.(i)) }

(* Mask off the unused bits of the last word so invariants hold after shifts. *)
let normalize v =
  let n = Array.length v.words in
  if n > 0 then begin
    let used = v.len mod bits_per_word in
    if used <> 0 then
      v.words.(n - 1) <- Int64.logand v.words.(n - 1) (Int64.sub (Int64.shift_left 1L used) 1L)
  end;
  v

let shift_towards_zero v i =
  if i < 0 then invalid_arg "Bitvec.shift_towards_zero: negative shift";
  let r = create v.len in
  let word_shift = i / bits_per_word and bit_shift = i mod bits_per_word in
  let n = Array.length v.words in
  for w = 0 to n - 1 do
    let src = w + word_shift in
    if src < n then begin
      let lo = Int64.shift_right_logical v.words.(src) bit_shift in
      let hi =
        if bit_shift = 0 || src + 1 >= n then 0L
        else Int64.shift_left v.words.(src + 1) (bits_per_word - bit_shift)
      in
      r.words.(w) <- Int64.logor lo hi
    end
  done;
  normalize r

let shift_away_from_zero v i =
  if i < 0 then invalid_arg "Bitvec.shift_away_from_zero: negative shift";
  let r = create v.len in
  let word_shift = i / bits_per_word and bit_shift = i mod bits_per_word in
  let n = Array.length v.words in
  for w = n - 1 downto 0 do
    let src = w - word_shift in
    if src >= 0 then begin
      let lo = Int64.shift_left v.words.(src) bit_shift in
      let hi =
        if bit_shift = 0 || src - 1 < 0 then 0L
        else Int64.shift_right_logical v.words.(src - 1) (bits_per_word - bit_shift)
      in
      r.words.(w) <- Int64.logor lo hi
    end
  done;
  normalize r

let correlation ss_g ss_rs ~shift =
  let denom = popcount ss_g in
  if denom = 0 then 0.
  else
    let shifted =
      if shift >= 0 then shift_towards_zero ss_rs shift
      else shift_away_from_zero ss_rs (-shift)
    in
    float_of_int (popcount (logand ss_g shifted)) /. float_of_int denom

let of_string s =
  let v = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set v i true
      | _ -> invalid_arg "Bitvec.of_string: expected only '0' and '1'")
    s;
  v

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')

let iter_set v f =
  for i = 0 to v.len - 1 do
    if get v i then f i
  done

let count_range v ~lo ~hi =
  let count = ref 0 in
  for i = max 0 lo to min v.len hi - 1 do
    if get v i then incr count
  done;
  !count
