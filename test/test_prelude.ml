(* Unit and property tests for the fmc_prelude substrate. *)

open Fmc_prelude

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Bitvec *)

let test_bitvec_basic () =
  let v = Bitvec.create 130 in
  Alcotest.(check int) "length" 130 (Bitvec.length v);
  Alcotest.(check bool) "fresh is zero" false (Bitvec.get v 0);
  Bitvec.set v 0 true;
  Bitvec.set v 63 true;
  Bitvec.set v 64 true;
  Bitvec.set v 129 true;
  Alcotest.(check bool) "bit 0" true (Bitvec.get v 0);
  Alcotest.(check bool) "bit 63" true (Bitvec.get v 63);
  Alcotest.(check bool) "bit 64" true (Bitvec.get v 64);
  Alcotest.(check bool) "bit 129" true (Bitvec.get v 129);
  Alcotest.(check bool) "bit 1" false (Bitvec.get v 1);
  Alcotest.(check int) "popcount" 4 (Bitvec.popcount v);
  Bitvec.set v 63 false;
  Alcotest.(check int) "popcount after clear" 3 (Bitvec.popcount v)

let test_bitvec_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitvec.get: index 8 out of [0, 8)") (fun () ->
      ignore (Bitvec.get v 8));
  Alcotest.check_raises "negative length" (Invalid_argument "Bitvec.create: negative length") (fun () ->
      ignore (Bitvec.create (-1)))

let test_bitvec_string_roundtrip () =
  let s = "01001101" in
  let v = Bitvec.of_string s in
  Alcotest.(check string) "roundtrip" s (Bitvec.to_string v);
  Alcotest.(check bool) "bit0 is leftmost char" false (Bitvec.get v 0);
  Alcotest.(check bool) "bit1" true (Bitvec.get v 1)

let test_bitvec_logand () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  Alcotest.(check string) "and" "1000" (Bitvec.to_string (Bitvec.logand a b));
  Alcotest.check_raises "length mismatch" (Invalid_argument "Bitvec.logand: length mismatch") (fun () ->
      ignore (Bitvec.logand a (Bitvec.create 5)))

let test_bitvec_shift () =
  let v = Bitvec.of_string "0100110" in
  Alcotest.(check string) "towards zero by 1" "1001100" (Bitvec.to_string (Bitvec.shift_towards_zero v 1));
  Alcotest.(check string) "towards zero by 0" "0100110" (Bitvec.to_string (Bitvec.shift_towards_zero v 0));
  Alcotest.(check string) "away by 2" "0001001" (Bitvec.to_string (Bitvec.shift_away_from_zero v 2));
  (* Cross-word shift. *)
  let w = Bitvec.create 100 in
  Bitvec.set w 70 true;
  let shifted = Bitvec.shift_towards_zero w 65 in
  Alcotest.(check bool) "bit 5 after shift 65" true (Bitvec.get shifted 5);
  Alcotest.(check int) "popcount preserved" 1 (Bitvec.popcount shifted)

(* The worked example of paper §4 (Figure 3): correlations of g1, g2, g3
   with the responding signal rs. *)
let test_bitvec_paper_example () =
  let ss_rs = Bitvec.of_string "01001101" in
  let ss_g1 = Bitvec.of_string "00101101" in
  let ss_g2 = Bitvec.of_string "01100111" in
  let ss_g3 = Bitvec.of_string "01001111" in
  check_float "Corr0(g1, rs)" (3. /. 4.) (Bitvec.correlation ss_g1 ss_rs ~shift:0);
  check_float "Corr0(g2, rs)" (3. /. 5.) (Bitvec.correlation ss_g2 ss_rs ~shift:0);
  check_float "Corr1(g3, rs)" (2. /. 5.) (Bitvec.correlation ss_g3 ss_rs ~shift:1)

let test_bitvec_correlation_empty () =
  let zero = Bitvec.create 8 in
  let rs = Bitvec.of_string "11111111" in
  check_float "zero signature" 0. (Bitvec.correlation zero rs ~shift:0)

let test_bitvec_count_range () =
  let v = Bitvec.of_string "1011001" in
  Alcotest.(check int) "[0,7)" 4 (Bitvec.count_range v ~lo:0 ~hi:7);
  Alcotest.(check int) "[2,5)" 2 (Bitvec.count_range v ~lo:2 ~hi:5);
  Alcotest.(check int) "clamped" 4 (Bitvec.count_range v ~lo:(-3) ~hi:100)

let test_bitvec_iter_set () =
  let v = Bitvec.of_string "0101" in
  let acc = ref [] in
  Bitvec.iter_set v (fun i -> acc := i :: !acc);
  Alcotest.(check (list int)) "indices ascending" [ 1; 3 ] (List.rev !acc)

let bitvec_props =
  let gen_bits = QCheck.(list_of_size Gen.(int_range 1 200) bool) in
  let to_vec bits =
    let v = Bitvec.create (List.length bits) in
    List.iteri (fun i b -> Bitvec.set v i b) bits;
    v
  in
  [
    QCheck.Test.make ~name:"popcount = number of true bits" ~count:200 gen_bits (fun bits ->
        Bitvec.popcount (to_vec bits) = List.length (List.filter Fun.id bits));
    QCheck.Test.make ~name:"popcount_and = popcount of logand" ~count:200
      QCheck.(pair gen_bits gen_bits)
      (fun (a, b) ->
        let n = min (List.length a) (List.length b) in
        let take l = List.filteri (fun i _ -> i < n) l in
        let va = to_vec (take a) and vb = to_vec (take b) in
        Bitvec.popcount_and va vb = Bitvec.popcount (Bitvec.logand va vb));
    QCheck.Test.make ~name:"shift towards then away keeps low bits zero" ~count:200
      QCheck.(pair gen_bits small_nat)
      (fun (bits, k) ->
        let v = to_vec bits in
        let k = k mod (Bitvec.length v + 1) in
        let round = Bitvec.shift_away_from_zero (Bitvec.shift_towards_zero v k) k in
        (* Bits below k must be zero; bits >= k must match v. *)
        let ok = ref true in
        for i = 0 to Bitvec.length v - 1 do
          let expect = if i < k then false else Bitvec.get v i in
          if Bitvec.get round i <> expect then ok := false
        done;
        !ok);
    QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:200 gen_bits (fun bits ->
        let s = String.concat "" (List.map (fun b -> if b then "1" else "0") bits) in
        Bitvec.to_string (Bitvec.of_string s) = s);
    QCheck.Test.make ~name:"correlation is within [0,1]" ~count:200
      QCheck.(triple gen_bits gen_bits (int_range 0 64))
      (fun (a, b, shift) ->
        let n = min (List.length a) (List.length b) in
        let take l = List.filteri (fun i _ -> i < n) l in
        let va = to_vec (take a) and vb = to_vec (take b) in
        let c = Bitvec.correlation va vb ~shift in
        c >= 0. && c <= 1.);
  ]

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_uniform () =
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int n /. 8. in
      let dev = abs_float (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) (Printf.sprintf "bin %d within 5%%" i) true (dev < 0.05))
    counts

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_split_independence () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* The child must not replay the parent's stream. *)
  let parent2 = Rng.create 5 in
  let _ = Rng.split parent2 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 child = Rng.int64 parent then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_state_roundtrip () =
  let rng = Rng.create 13 in
  for _ = 1 to 37 do
    ignore (Rng.int64 rng)
  done;
  (* Snapshotting mid-stream and restoring must continue the exact draws. *)
  let restored = Rng.of_state (Rng.state rng) in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d after restore" i)
      (Rng.int64 rng) (Rng.int64 restored)
  done

let test_rng_choose () =
  let rng = Rng.create 1 in
  Alcotest.(check int) "singleton" 7 (Rng.choose rng [| 7 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_welford_known_values () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5.0 (Stats.Welford.mean w);
  check_float "variance (unbiased)" (32. /. 7.) (Stats.Welford.variance w);
  Alcotest.(check int) "count" 8 (Stats.Welford.count w)

let test_welford_empty_and_single () =
  let w = Stats.Welford.create () in
  check_float "empty mean" 0. (Stats.Welford.mean w);
  check_float "empty var" 0. (Stats.Welford.variance w);
  Stats.Welford.add w 3.5;
  check_float "single mean" 3.5 (Stats.Welford.mean w);
  check_float "single var" 0. (Stats.Welford.variance w)

let test_welford_merge () =
  let xs = [ 1.; 2.; 3.; 10.; 20.; 30.; -4. ] in
  let all = Stats.Welford.create () in
  List.iter (Stats.Welford.add all) xs;
  let a = Stats.Welford.create () and b = Stats.Welford.create () in
  List.iteri (fun i x -> Stats.Welford.add (if i < 3 then a else b) x) xs;
  let merged = Stats.Welford.merge a b in
  check_float "merged mean" (Stats.Welford.mean all) (Stats.Welford.mean merged);
  check_float "merged variance" (Stats.Welford.variance all) (Stats.Welford.variance merged);
  Alcotest.(check int) "merged count" 7 (Stats.Welford.count merged)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.; 3.; 9.9; -4.; 100. ];
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h);
  let counts = Stats.Histogram.counts h in
  Alcotest.(check int) "first bin gets clamped low" 3 counts.(0);
  Alcotest.(check int) "last bin gets clamped high" 2 counts.(4);
  Alcotest.(check int) "bin 1" 1 counts.(1);
  check_float "probability sums to one" 1.0 (Array.fold_left ( +. ) 0. (Stats.Histogram.probabilities h));
  check_float "bin center" 1.0 (Stats.Histogram.bin_center h 0)

let test_histogram_invalid () =
  Alcotest.check_raises "bins" (Invalid_argument "Histogram.create: bins must be positive") (fun () ->
      ignore (Stats.Histogram.create ~lo:0. ~hi:1. ~bins:0));
  Alcotest.check_raises "range" (Invalid_argument "Histogram.create: hi must exceed lo") (fun () ->
      ignore (Stats.Histogram.create ~lo:1. ~hi:1. ~bins:4))

let test_array_stats () =
  check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check_float "variance" (5. /. 3.) (Stats.variance [| 1.; 2.; 3.; 4. |]);
  check_float "empty mean" 0. (Stats.mean [||]);
  check_float "singleton variance" 0. (Stats.variance [| 42. |])

let welford_props =
  [
    QCheck.Test.make ~name:"welford matches direct computation" ~count:200
      QCheck.(list_of_size Gen.(int_range 2 100) (float_range (-100.) 100.))
      (fun xs ->
        let w = Stats.Welford.create () in
        List.iter (Stats.Welford.add w) xs;
        let a = Array.of_list xs in
        abs_float (Stats.Welford.mean w -. Stats.mean a) < 1e-6
        && abs_float (Stats.Welford.variance w -. Stats.variance a) < 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Wdist *)

let test_wdist_pmf () =
  let d = Wdist.create [| 1.; 3.; 0.; 4. |] in
  check_float "pmf 0" 0.125 (Wdist.pmf d 0);
  check_float "pmf 1" 0.375 (Wdist.pmf d 1);
  check_float "pmf 2" 0. (Wdist.pmf d 2);
  check_float "pmf 3" 0.5 (Wdist.pmf d 3);
  Alcotest.(check (list int)) "support" [ 0; 1; 3 ] (Wdist.support d);
  Alcotest.(check int) "length" 4 (Wdist.length d)

let test_wdist_invalid () =
  let inv msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  inv "Wdist.create: empty weight array" (fun () -> ignore (Wdist.create [||]));
  inv "Wdist.create: all weights are zero" (fun () -> ignore (Wdist.create [| 0.; 0. |]));
  inv "Wdist.create: weights must be finite and non-negative" (fun () ->
      ignore (Wdist.create [| 1.; -2. |]))

let test_wdist_sampling_frequencies () =
  let d = Wdist.create [| 1.; 0.; 2.; 1. |] in
  let rng = Rng.create 123 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Wdist.sample d rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight index never drawn" 0 counts.(1);
  let freq i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "freq 0 ~ 0.25" true (abs_float (freq 0 -. 0.25) < 0.02);
  Alcotest.(check bool) "freq 2 ~ 0.5" true (abs_float (freq 2 -. 0.5) < 0.02);
  Alcotest.(check bool) "freq 3 ~ 0.25" true (abs_float (freq 3 -. 0.25) < 0.02)

let wdist_props =
  [
    QCheck.Test.make ~name:"samples always in support" ~count:100
      QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0. 10.))
      (fun ws ->
        let ws = Array.of_list ws in
        QCheck.assume (Array.exists (fun w -> w > 0.) ws);
        let d = Wdist.create ws in
        let rng = Rng.create 77 in
        let support = Wdist.support d in
        let ok = ref true in
        for _ = 1 to 200 do
          if not (List.mem (Wdist.sample d rng) support) then ok := false
        done;
        !ok);
    QCheck.Test.make ~name:"pmf sums to one" ~count:100
      QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0. 10.))
      (fun ws ->
        let ws = Array.of_list ws in
        QCheck.assume (Array.exists (fun w -> w > 0.) ws);
        let d = Wdist.create ws in
        let sum = ref 0. in
        for i = 0 to Wdist.length d - 1 do
          sum := !sum +. Wdist.pmf d i
        done;
        abs_float (!sum -. 1.) < 1e-9);
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "prelude"
    [
      ( "bitvec",
        [
          Alcotest.test_case "basic set/get/popcount" `Quick test_bitvec_basic;
          Alcotest.test_case "bounds checking" `Quick test_bitvec_bounds;
          Alcotest.test_case "string roundtrip" `Quick test_bitvec_string_roundtrip;
          Alcotest.test_case "logand" `Quick test_bitvec_logand;
          Alcotest.test_case "shifts" `Quick test_bitvec_shift;
          Alcotest.test_case "paper figure 3 correlations" `Quick test_bitvec_paper_example;
          Alcotest.test_case "correlation of empty signature" `Quick test_bitvec_correlation_empty;
          Alcotest.test_case "count_range" `Quick test_bitvec_count_range;
          Alcotest.test_case "iter_set" `Quick test_bitvec_iter_set;
        ] );
      ("bitvec-props", q bitvec_props);
      ( "rng",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int ranges" `Quick test_rng_int_range;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniform;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "state snapshot/restore" `Quick test_rng_state_roundtrip;
          Alcotest.test_case "choose" `Quick test_rng_choose;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford known values" `Quick test_welford_known_values;
          Alcotest.test_case "welford empty/single" `Quick test_welford_empty_and_single;
          Alcotest.test_case "welford merge" `Quick test_welford_merge;
          Alcotest.test_case "histogram binning" `Quick test_histogram;
          Alcotest.test_case "histogram invalid args" `Quick test_histogram_invalid;
          Alcotest.test_case "array mean/variance" `Quick test_array_stats;
        ] );
      ("stats-props", q welford_props);
      ( "wdist",
        [
          Alcotest.test_case "pmf and support" `Quick test_wdist_pmf;
          Alcotest.test_case "invalid inputs" `Quick test_wdist_invalid;
          Alcotest.test_case "sampling frequencies" `Slow test_wdist_sampling_frequencies;
        ] );
      ("wdist-props", q wdist_props);
    ]
