module Series = Rmcast.Series
module Stats = Rmcast.Stats

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

(* --- Series --- *)

let test_geometric_sum () =
  (* sum_{i>=0} 0.5^i = 2 *)
  close "geometric" 2.0 (Series.sum_survival (fun i -> 0.5 ** float_of_int i))

let test_expectation_geometric_rv () =
  (* X ~ Geometric(p) on 0,1,2,...: P(X > i) = (1-p)^(i+1), E[X] = (1-p)/p *)
  let p = 0.2 in
  close "E geometric" 4.0
    (Series.expectation_from_survival (fun i -> (1.0 -. p) ** float_of_int (i + 1)))

let test_expectation_constant_rv () =
  (* X = 5: P(X > i) = 1 for i < 5 else 0 *)
  close "E constant" 5.0
    (Series.expectation_from_survival (fun i -> if i < 5 then 1.0 else 0.0))

let test_divergence_detected () =
  Alcotest.(check bool) "raises" true
    (match Series.sum_survival ~max_terms:1000 (fun _ -> 1.0) with
    | exception Series.Did_not_converge { terms = 1000; _ } -> true
    | _ -> false)

let test_negative_term_rejected () =
  Alcotest.check_raises "negative term"
    (Invalid_argument "Series.sum_survival: negative term") (fun () ->
      ignore (Series.sum_survival (fun _ -> -1.0)))

(* --- Stats.Accumulator --- *)

let test_accumulator_known () =
  let acc = Stats.Accumulator.create () in
  List.iter (Stats.Accumulator.add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  close "count" 8.0 (float_of_int (Stats.Accumulator.count acc));
  close "mean" 5.0 (Stats.Accumulator.mean acc);
  close "variance (unbiased)" (32.0 /. 7.0) (Stats.Accumulator.variance acc)

let test_accumulator_empty () =
  let acc = Stats.Accumulator.create () in
  close "empty mean" 0.0 (Stats.Accumulator.mean acc);
  close "empty variance" 0.0 (Stats.Accumulator.variance acc);
  close "empty stderr" 0.0 (Stats.Accumulator.std_error acc)

let test_accumulator_single () =
  let acc = Stats.Accumulator.create () in
  Stats.Accumulator.add acc 3.5;
  close "single mean" 3.5 (Stats.Accumulator.mean acc);
  close "single variance" 0.0 (Stats.Accumulator.variance acc)

let test_accumulator_merge () =
  let rng = Rmcast.Rng.create ~seed:3 () in
  let all = Stats.Accumulator.create () in
  let left = Stats.Accumulator.create () in
  let right = Stats.Accumulator.create () in
  for i = 1 to 1000 do
    let x = Rmcast.Rng.float rng in
    Stats.Accumulator.add all x;
    Stats.Accumulator.add (if i mod 3 = 0 then left else right) x
  done;
  let merged = Stats.Accumulator.merge left right in
  close "merged mean" (Stats.Accumulator.mean all) (Stats.Accumulator.mean merged);
  close "merged variance" (Stats.Accumulator.variance all) (Stats.Accumulator.variance merged);
  close "merged count" 1000.0 (float_of_int (Stats.Accumulator.count merged))

let test_confidence_interval () =
  let acc = Stats.Accumulator.create () in
  for _ = 1 to 10_000 do
    Stats.Accumulator.add acc 2.0
  done;
  let low, high = Stats.Accumulator.confidence95 acc in
  close "degenerate CI low" 2.0 low;
  close "degenerate CI high" 2.0 high

(* --- Stats.Histogram --- *)

let test_histogram_counts () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1; 2; 2; 3; 3; 3 ];
  Alcotest.(check int) "count 1" 1 (Stats.Histogram.count h 1);
  Alcotest.(check int) "count 2" 2 (Stats.Histogram.count h 2);
  Alcotest.(check int) "count 3" 3 (Stats.Histogram.count h 3);
  Alcotest.(check int) "count absent" 0 (Stats.Histogram.count h 9);
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h);
  Alcotest.(check int) "max" 3 (Stats.Histogram.max_value h);
  close "mean" (14.0 /. 6.0) (Stats.Histogram.mean h)

let test_histogram_sorted () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 5; 1; 3; 1 ];
  Alcotest.(check (list (pair int int))) "sorted pairs" [ (1, 2); (3, 1); (5, 1) ]
    (Stats.Histogram.to_sorted_list h)

let test_histogram_add_many () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add_many h 4 10;
  Stats.Histogram.add_many h 4 0;
  Alcotest.(check int) "bulk add" 10 (Stats.Histogram.count h 4);
  Alcotest.(check int) "empty histogram max" (-1) (Stats.Histogram.max_value (Stats.Histogram.create ()))

(* --- quantile --- *)

let test_quantile () =
  let xs = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  close "median" 35.0 (Rmcast.Stats.quantile xs 0.5);
  close "min" 15.0 (Rmcast.Stats.quantile xs 0.0);
  close "max" 50.0 (Rmcast.Stats.quantile xs 1.0);
  close "interpolated" 17.5 (Rmcast.Stats.quantile xs 0.125)

let test_quantile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty array") (fun () ->
      ignore (Rmcast.Stats.quantile [||] 0.5))

let suite =
  [
    Alcotest.test_case "geometric series" `Quick test_geometric_sum;
    Alcotest.test_case "E[geometric] from survival" `Quick test_expectation_geometric_rv;
    Alcotest.test_case "E[constant] from survival" `Quick test_expectation_constant_rv;
    Alcotest.test_case "divergence detected" `Quick test_divergence_detected;
    Alcotest.test_case "negative terms rejected" `Quick test_negative_term_rejected;
    Alcotest.test_case "accumulator textbook data" `Quick test_accumulator_known;
    Alcotest.test_case "accumulator empty" `Quick test_accumulator_empty;
    Alcotest.test_case "accumulator single" `Quick test_accumulator_single;
    Alcotest.test_case "accumulator merge = bulk" `Quick test_accumulator_merge;
    Alcotest.test_case "confidence interval degenerate" `Quick test_confidence_interval;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram sorted output" `Quick test_histogram_sorted;
    Alcotest.test_case "histogram add_many" `Quick test_histogram_add_many;
    Alcotest.test_case "quantile interpolation" `Quick test_quantile;
    Alcotest.test_case "quantile invalid" `Quick test_quantile_invalid;
  ]
