module Sampler = Rmcast.Sampler
module Rng = Rmcast.Rng

let mean_var samples =
  let n = float_of_int (Array.length samples) in
  let mean = Array.fold_left ( +. ) 0.0 samples /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples /. (n -. 1.0)
  in
  (mean, var)

let check_binomial_moments ~n ~p ~reps ~seed =
  let rng = Rng.create ~seed () in
  let samples =
    Array.init reps (fun _ -> float_of_int (Sampler.binomial rng ~n ~p))
  in
  let mean, var = mean_var samples in
  let expected_mean = float_of_int n *. p in
  let expected_var = float_of_int n *. p *. (1.0 -. p) in
  let mean_tolerance = 4.0 *. sqrt (expected_var /. float_of_int reps) +. 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "mean n=%d p=%g: %.3f vs %.3f" n p mean expected_mean)
    true
    (Float.abs (mean -. expected_mean) < mean_tolerance);
  Alcotest.(check bool)
    (Printf.sprintf "variance n=%d p=%g: %.3f vs %.3f" n p var expected_var)
    true
    (expected_var = 0.0 || Float.abs (var -. expected_var) /. expected_var < 0.15)

(* Each case lands in a different sampler regime. *)
let test_binomial_small_n () = check_binomial_moments ~n:20 ~p:0.3 ~reps:20_000 ~seed:1
let test_binomial_geometric_path () = check_binomial_moments ~n:10_000 ~p:0.0005 ~reps:20_000 ~seed:2
let test_binomial_btrs_path () = check_binomial_moments ~n:5_000 ~p:0.01 ~reps:20_000 ~seed:3
let test_binomial_large_p () = check_binomial_moments ~n:1_000 ~p:0.93 ~reps:20_000 ~seed:4
let test_binomial_half () = check_binomial_moments ~n:131_072 ~p:0.5 ~reps:5_000 ~seed:5

let test_binomial_support () =
  let rng = Rng.create ~seed:6 () in
  for _ = 1 to 10_000 do
    let x = Sampler.binomial rng ~n:100 ~p:0.02 in
    Alcotest.(check bool) "in [0,n]" true (x >= 0 && x <= 100)
  done

let test_binomial_edges () =
  let rng = Rng.create ~seed:7 () in
  Alcotest.(check int) "p=0" 0 (Sampler.binomial rng ~n:1000 ~p:0.0);
  Alcotest.(check int) "p=1" 1000 (Sampler.binomial rng ~n:1000 ~p:1.0);
  Alcotest.(check int) "n=0" 0 (Sampler.binomial rng ~n:0 ~p:0.4);
  (* NaN once passed the range check and looped forever at n = 100. *)
  Alcotest.check_raises "p=nan" (Invalid_argument "Sampler.binomial: p outside [0,1]")
    (fun () -> ignore (Sampler.binomial rng ~n:100 ~p:nan))

let test_binomial_exact_law_small () =
  (* Chi-squared-style check on n=3, p=0.4 against exact probabilities. *)
  let rng = Rng.create ~seed:8 () in
  let counts = Array.make 4 0 in
  let reps = 200_000 in
  for _ = 1 to reps do
    let x = Sampler.binomial rng ~n:3 ~p:0.4 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun j count ->
      let expected = Rmcast.Dist.Binomial.pmf ~n:3 ~p:0.4 j *. float_of_int reps in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d" j)
        true
        (Float.abs (float_of_int count -. expected) < 5.0 *. sqrt expected))
    counts

(* The beta-order-statistic splitting regime (n > 2^16), up to the paper's
   R = 10^6 populations. *)
let test_binomial_split_moments () =
  check_binomial_moments ~n:1_000_000 ~p:0.01 ~reps:5_000 ~seed:15;
  check_binomial_moments ~n:1_000_000 ~p:0.6 ~reps:5_000 ~seed:16;
  check_binomial_moments ~n:100_000 ~p:0.001 ~reps:5_000 ~seed:17

let test_binomial_split_support () =
  let rng = Rng.create ~seed:18 () in
  for _ = 1 to 2_000 do
    let x = Sampler.binomial rng ~n:1_000_000 ~p:1e-5 in
    Alcotest.(check bool) "in [0,n]" true (x >= 0 && x <= 1_000_000)
  done

(* Known answers, one stream per regime: the draws a seed names are a
   contract (golden digests, captures), so a change to any regime's
   arithmetic or to how many words it consumes must fail here.  The
   trailing [bits64] pins the consumption. *)
let test_binomial_known_answers () =
  let check name ~n ~p expected after =
    let rng = Rng.create ~seed:77 () in
    let drawn = List.init (List.length expected) (fun _ -> Sampler.binomial rng ~n ~p) in
    Alcotest.(check (list int)) name expected drawn;
    Alcotest.(check int64) (name ^ ": bits64 after") after (Rng.bits64 rng)
  in
  check "n <= 32 loop" ~n:20 ~p:0.3 [ 7; 5; 8; 7; 7; 9 ] 5188279646716765582L;
  check "geometric skip" ~n:10_000 ~p:0.0005 [ 4; 7; 6; 6; 10; 3 ] 8882129814934306860L;
  check "BTRS" ~n:5_000 ~p:0.01 [ 47; 60; 61; 62; 36; 59 ] (-3664467926917275048L);
  check "beta split" ~n:1_000_000 ~p:0.01 [ 10007; 9798; 9948; 10051; 10101; 10095 ]
    (-1478509811008143565L);
  check "p > 1/2 reflection" ~n:1_000 ~p:0.93 [ 933; 918; 918; 916; 946; 919 ]
    (-3664467926917275048L)

(* Differential law check against Dist.Binomial.cdf: the empirical cdf of
   the sampler at the distribution's quartiles must match the analytic cdf.
   Each empirical fraction over [reps] draws is a Binomial proportion with
   std error sqrt(q(1-q)/reps), so 5 sigma bounds the per-point false-alarm
   rate well under the qcheck case count. *)
let quantile_of_cdf ~n ~p q =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Rmcast.Dist.Binomial.cdf ~n ~p mid >= q then search lo mid
      else search (mid + 1) hi
  in
  search 0 n

let qcheck_binomial_matches_cdf =
  let gen =
    QCheck.Gen.(
      let* n = oneof [ int_range 2 64; int_range 65 65_536; int_range 65_537 1_000_000 ] in
      let* p = oneof [ float_range 1e-6 0.05; float_range 0.05 0.95 ] in
      let* seed = int_range 1 1_000_000 in
      return (n, p, seed))
  in
  QCheck.Test.make ~count:60 ~name:"binomial sampler matches Dist.Binomial.cdf"
    (QCheck.make ~print:(fun (n, p, seed) -> Printf.sprintf "n=%d p=%.9g seed=%d" n p seed) gen)
    (fun (n, p, seed) ->
      let rng = Rng.create ~seed () in
      let reps = 400 in
      let samples = Array.init reps (fun _ -> Sampler.binomial rng ~n ~p) in
      List.for_all
        (fun q ->
          let j = quantile_of_cdf ~n ~p q in
          let analytic = Rmcast.Dist.Binomial.cdf ~n ~p j in
          let hits = Array.fold_left (fun acc x -> if x <= j then acc + 1 else acc) 0 samples in
          let empirical = float_of_int hits /. float_of_int reps in
          let sigma = sqrt (analytic *. (1.0 -. analytic) /. float_of_int reps) in
          Float.abs (empirical -. analytic) <= (5.0 *. sigma) +. (1.0 /. float_of_int reps))
        [ 0.25; 0.5; 0.75 ])

let test_distinct_ints_distinct () =
  let rng = Rng.create ~seed:9 () in
  for _ = 1 to 200 do
    let sample = Sampler.distinct_ints rng ~n:50 ~k:20 in
    Alcotest.(check int) "size" 20 (Array.length sample);
    let sorted = Array.copy sample in
    Array.sort compare sorted;
    for i = 1 to 19 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
    done;
    Array.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 50)) sample
  done

let test_distinct_ints_full () =
  let rng = Rng.create ~seed:10 () in
  let sample = Sampler.distinct_ints rng ~n:10 ~k:10 in
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "whole range" (Array.init 10 Fun.id) sorted

let test_distinct_ints_uniform_membership () =
  (* Each element appears with probability k/n. *)
  let rng = Rng.create ~seed:11 () in
  let hits = Array.make 20 0 in
  let reps = 50_000 in
  for _ = 1 to reps do
    Array.iter (fun x -> hits.(x) <- hits.(x) + 1) (Sampler.distinct_ints rng ~n:20 ~k:5)
  done;
  let expected = float_of_int reps *. 0.25 in
  Array.iter
    (fun count ->
      Alcotest.(check bool) "inclusion probability" true
        (Float.abs (float_of_int count -. expected) < 5.0 *. sqrt expected))
    hits

let test_distinct_ints_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "k>n" (Invalid_argument "Sampler.distinct_ints: need 0 <= k <= n")
    (fun () -> ignore (Sampler.distinct_ints rng ~n:3 ~k:4))

let test_subset_bernoulli_rate () =
  let rng = Rng.create ~seed:12 () in
  let total = ref 0 in
  let reps = 2_000 in
  for _ = 1 to reps do
    total := !total + Array.length (Sampler.subset_bernoulli rng ~n:1000 ~p:0.05)
  done;
  let rate = float_of_int !total /. float_of_int (reps * 1000) in
  Alcotest.(check bool) "marginal rate" true (Float.abs (rate -. 0.05) < 0.003)

let test_subset_bernoulli_sorted_distinct () =
  let rng = Rng.create ~seed:13 () in
  for _ = 1 to 200 do
    let subset = Sampler.subset_bernoulli rng ~n:500 ~p:0.1 in
    for i = 1 to Array.length subset - 1 do
      Alcotest.(check bool) "strictly increasing" true (subset.(i) > subset.(i - 1))
    done
  done

let test_categorical () =
  let rng = Rng.create ~seed:14 () in
  let counts = Array.make 3 0 in
  let reps = 90_000 in
  for _ = 1 to reps do
    let i = Sampler.categorical rng ~weights:[| 1.0; 2.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  List.iteri
    (fun i expected_fraction ->
      let got = float_of_int counts.(i) /. float_of_int reps in
      Alcotest.(check bool)
        (Printf.sprintf "weight %d" i)
        true
        (Float.abs (got -. expected_fraction) < 0.01))
    [ 1.0 /. 6.0; 2.0 /. 6.0; 3.0 /. 6.0 ]

let test_categorical_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Sampler.categorical: weights sum to <= 0") (fun () ->
      ignore (Sampler.categorical rng ~weights:[| 0.0; 0.0 |]))

let suite =
  [
    Alcotest.test_case "binomial small-n regime" `Quick test_binomial_small_n;
    Alcotest.test_case "binomial geometric regime" `Quick test_binomial_geometric_path;
    Alcotest.test_case "binomial BTRS regime" `Quick test_binomial_btrs_path;
    Alcotest.test_case "binomial p>1/2 reflection" `Quick test_binomial_large_p;
    Alcotest.test_case "binomial huge n" `Quick test_binomial_half;
    Alcotest.test_case "binomial support" `Quick test_binomial_support;
    Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
    Alcotest.test_case "binomial exact law (n=3)" `Quick test_binomial_exact_law_small;
    Alcotest.test_case "binomial beta-split moments (n to 10^6)" `Quick
      test_binomial_split_moments;
    Alcotest.test_case "binomial beta-split support" `Quick test_binomial_split_support;
    Alcotest.test_case "binomial known answers per regime" `Quick test_binomial_known_answers;
    QCheck_alcotest.to_alcotest qcheck_binomial_matches_cdf;
    Alcotest.test_case "distinct_ints distinct & in range" `Quick test_distinct_ints_distinct;
    Alcotest.test_case "distinct_ints k=n" `Quick test_distinct_ints_full;
    Alcotest.test_case "distinct_ints inclusion uniform" `Quick test_distinct_ints_uniform_membership;
    Alcotest.test_case "distinct_ints invalid" `Quick test_distinct_ints_invalid;
    Alcotest.test_case "subset_bernoulli rate" `Quick test_subset_bernoulli_rate;
    Alcotest.test_case "subset_bernoulli sorted distinct" `Quick test_subset_bernoulli_sorted_distinct;
    Alcotest.test_case "categorical frequencies" `Quick test_categorical;
    Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
  ]
