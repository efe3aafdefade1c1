(* Simulation-tier scaling: simulated-receivers/sec of the aggregate
   count-vector tier versus the exact per-receiver walk, across the paper's
   large-R operating points (Figures 11-16, R up to 10^6).

   The metric is [receivers * reps / wall_seconds] — how many receiver-
   transfers of one TG the tier simulates per wall second.  The exact tier
   pays O(R) per packet so its rate is flat in R; the aggregate tier pays
   O(k) binomial thinnings per packet (or a single order-statistic
   inversion for the memoryless open-loop scheme) so its rate grows
   linearly with R.  Each aggregate regime point also records the
   analytical E[M] where lib/analysis has a closed form (eq. 6 is exact
   for the open-loop scheme and a lower bound for NAK rounds, which only
   overshoot by round-granular batching) and whether the measurement agrees.

   Regime points are independent, so the full run shards them across
   domains with [Parallel.map] — the aggregate tier is what the pool was
   built to scale.  `--smoke` (wired to @bench-smoke, hence @ci) gates on:
   a hard floor on the aggregate rate at R = 10^4, determinism (same seed
   twice -> bit-identical sample fields), E[M] agreement with eq. 6, the
   log-factorial memo not re-deriving its table across repeated cdf calls,
   and a lenient aggregate/exact speedup sanity check.  The full run
   writes BENCH_SCALE.json (override: --out). *)

open Rmcast

type mode = Full | Smoke

let mode = ref Full
let out_path = ref "BENCH_SCALE.json"
let jobs = ref (Domain.recommended_domain_count ())

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest | "--fast" :: rest ->
      mode := Smoke;
      parse rest
    | "--out" :: path :: rest ->
      out_path := path;
      parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> jobs := n
      | _ ->
        Printf.eprintf "bad job count %S\n" n;
        exit 2);
      parse rest
    | arg :: _ ->
      Printf.eprintf "usage: scale [--smoke] [--out PATH] [--jobs N] (got %S)\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* --- regime points ------------------------------------------------------ *)

let p = 0.01
let mean_burst = 2.0
let send_rate = 25.0 (* packets/sec, the paper's §4.2 operating point *)

type regime = {
  label : string; (* which figure family the point reproduces *)
  receivers : int;
  k : int;
  a : int;
  bursty : bool;
  scheme : Runner.scheme;
  reps : int;
}

(* Figures 11/12: E[M] and feedback vs R under independent loss, k = 7.
   Figures 14-16: bursty (Markov) loss, k in {7, 20, 100}, at the largest
   receiver counts the paper plots. *)
let full_regimes =
  [
    { label = "fig11-12"; receivers = 10_000; k = 7; a = 0; bursty = false;
      scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 2000 };
    { label = "fig11-12"; receivers = 100_000; k = 7; a = 0; bursty = false;
      scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 1000 };
    { label = "fig11-12"; receivers = 1_000_000; k = 7; a = 0; bursty = false;
      scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 500 };
    { label = "fig11-12-openloop"; receivers = 1_000_000; k = 7; a = 0; bursty = false;
      scheme = Runner.Integrated_open_loop { a = 0 }; reps = 2000 };
    { label = "fig14-16"; receivers = 1_000_000; k = 7; a = 0; bursty = true;
      scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 200 };
    { label = "fig14-16"; receivers = 1_000_000; k = 20; a = 0; bursty = true;
      scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 100 };
    { label = "fig14-16"; receivers = 1_000_000; k = 100; a = 0; bursty = true;
      scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 50 };
  ]

let channel_of regime =
  if regime.bursty then Aggregate.bursty ~p ~mean_burst ~send_rate
  else Aggregate.bernoulli ~p

let timing_of regime = if regime.bursty then Timing.paper_burst else Timing.instantaneous

type sample = {
  regime : regime;
  mean_m : float;
  ci_low : float;
  ci_high : float;
  rounds : float;
  wall : float;
  rate : float; (* simulated receivers / sec *)
  analysis_m : float option; (* eq. 6, Bernoulli channels only *)
  agrees : bool; (* trivially true when analysis_m = None *)
}

(* Eq. 6 is exact for open-loop (total = k + a + L) and a lower bound for
   NAK rounds (round-granular batches overshoot L by at most the final
   batch), so agreement means: within 3 standard errors above the bound,
   never meaningfully below it, and the overshoot bounded at 5%. *)
let analysis_agreement regime est =
  match channel_of regime with
  | Aggregate.Gilbert _ -> (None, true)
  | Aggregate.Bernoulli { p } ->
    let population = Receivers.homogeneous ~p ~count:regime.receivers in
    let bound =
      Integrated.expected_transmissions_unbounded ~k:regime.k ~a:regime.a ~population ()
    in
    let mean = Stats.Accumulator.mean est.Runner.transmissions_per_packet in
    let se = Stats.Accumulator.std_error est.Runner.transmissions_per_packet in
    let agrees =
      match regime.scheme with
      | Runner.Integrated_open_loop _ -> Float.abs (mean -. bound) <= 3.0 *. se
      | _ -> mean >= bound -. (3.0 *. se) && mean <= (1.05 *. bound) +. (3.0 *. se)
    in
    (Some bound, agrees)

let run_regime ~seed regime =
  let rng = Rng.create ~seed () in
  let channel = channel_of regime in
  let est, wall =
    timed (fun () ->
        Tg_aggregate.estimate rng ~receivers:regime.receivers ~channel ~k:regime.k
          ~scheme:regime.scheme ~timing:(timing_of regime) ~reps:regime.reps ())
  in
  let ci_low, ci_high = Stats.Accumulator.confidence95 est.Runner.transmissions_per_packet in
  let analysis_m, agrees = analysis_agreement regime est in
  {
    regime;
    mean_m = Stats.Accumulator.mean est.Runner.transmissions_per_packet;
    ci_low;
    ci_high;
    rounds = Stats.Accumulator.mean est.Runner.rounds;
    wall;
    rate = float_of_int regime.receivers *. float_of_int regime.reps /. Float.max 1e-9 wall;
    analysis_m;
    agrees;
  }

(* Exact-tier baseline at R = 10^4 (the largest R the per-receiver walk
   sustains comfortably): same scheme, same channel law, measured with the
   same receivers*reps/wall metric. *)
let exact_baseline ~seed ~receivers ~reps =
  let rng = Rng.create ~seed () in
  let network = Network.independent rng ~receivers ~p in
  let est, wall =
    timed (fun () ->
        Runner.estimate network ~k:7
          ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse })
          ~timing:Timing.instantaneous ~reps ())
  in
  let mean = Stats.Accumulator.mean est.Runner.transmissions_per_packet in
  (mean, wall, float_of_int receivers *. float_of_int reps /. Float.max 1e-9 wall)

let print_sample s =
  Printf.printf
    "%-18s R=%-8d k=%-3d %-13s reps=%-5d E[M]=%.4f%s rounds=%.3f %9.2es %12.3e rx/s%s\n%!"
    s.regime.label s.regime.receivers s.regime.k
    (Runner.scheme_name s.regime.scheme)
    s.regime.reps s.mean_m
    (match s.analysis_m with
    | Some b -> Printf.sprintf " (eq.6 %.4f)" b
    | None -> "")
    s.rounds s.wall s.rate
    (if s.agrees then "" else "  [DISAGREES]")

(* --- JSON --------------------------------------------------------------- *)

let json_of ~samples ~exact_rate ~exact_wall ~exact_receivers ~exact_reps ~speedup
    ~elapsed =
  let buffer = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  pr "{\n";
  pr "  \"meta\": {\n";
  pr "    \"unit\": \"simulated receivers per wall second (receivers * reps / wall)\",\n";
  pr
    "    \"note\": \"regime points run concurrently (sharded across domains), so their \
     wall times are upper bounds; the speedup-ref point and the exact tier are measured \
     sequentially\",\n";
  pr "    \"p\": %g,\n" p;
  pr "    \"mean_burst\": %g,\n" mean_burst;
  pr "    \"send_rate\": %g,\n" send_rate;
  pr "    \"domains\": %d,\n" (Parallel.domain_count (Parallel.pool_sized !jobs));
  pr "    \"elapsed_s\": %.2f\n" elapsed;
  pr "  },\n";
  pr "  \"exact_tier\": {\n";
  pr "    \"receivers\": %d, \"reps\": %d, \"wall_s\": %.4f,\n" exact_receivers exact_reps
    exact_wall;
  pr "    \"receivers_per_sec\": %.3e\n" exact_rate;
  pr "  },\n";
  pr "  \"aggregate_tier\": [\n";
  List.iteri
    (fun i s ->
      pr
        "    {\"label\": %S, \"receivers\": %d, \"k\": %d, \"scheme\": %S, \"channel\": \
         %S, \"reps\": %d,\n\
        \     \"mean_m\": %.6f, \"ci95\": [%.6f, %.6f], \"rounds\": %.4f,\n\
        \     \"wall_s\": %.4f, \"receivers_per_sec\": %.3e, \"analysis_m\": %s, \
         \"agrees_with_analysis\": %b}%s\n"
        s.regime.label s.regime.receivers s.regime.k
        (Runner.scheme_name s.regime.scheme)
        (Aggregate.channel_description (channel_of s.regime))
        s.regime.reps s.mean_m s.ci_low s.ci_high s.rounds s.wall s.rate
        (match s.analysis_m with Some b -> Printf.sprintf "%.6f" b | None -> "null")
        s.agrees
        (if i = List.length samples - 1 then "" else ","))
    samples;
  pr "  ],\n";
  pr "  \"summary\": {\n";
  pr "    \"speedup_at_1e4\": %.1f\n" speedup;
  pr "  }\n";
  pr "}\n";
  Buffer.contents buffer

(* --- smoke gates -------------------------------------------------------- *)

(* Floors are far under the measured rates (aggregate ~1e9+ rx/s at
   R = 10^4, speedup >= 1e3x) so only a tier-collapse trips them on noisy
   shared CI. *)
let smoke_rate_floor = 1e7
let smoke_min_speedup = 3.0

let smoke () =
  let failures = ref 0 in
  let check name ok detail =
    if not ok then begin
      Printf.eprintf "SMOKE FAIL: %s (%s)\n" name detail;
      incr failures
    end
  in
  (* Satellite gate: repeated cdf calls must reuse the grown log-factorial
     memo, not re-derive it. *)
  ignore (Dist.Negative_binomial.cdf_array ~k:7 ~a:0 ~p 4096 : float array);
  let extensions = Special.log_factorial_extensions () in
  for _ = 1 to 5 do
    ignore (Dist.Negative_binomial.cdf_array ~k:7 ~a:0 ~p 4096 : float array)
  done;
  check "log-factorial memo reuse"
    (Special.log_factorial_extensions () = extensions)
    "repeated cdf_array calls re-extended the memo table";
  let regime =
    { label = "smoke"; receivers = 10_000; k = 7; a = 0; bursty = false;
      scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 400 }
  in
  ignore (run_regime ~seed:1 regime : sample) (* warm up: memo growth, code *);
  let s1 = run_regime ~seed:1 regime in
  let s2 = run_regime ~seed:1 regime in
  print_sample s1;
  check "aggregate rate floor"
    (s1.rate >= smoke_rate_floor)
    (Printf.sprintf "%.3e rx/s < %.0e" s1.rate smoke_rate_floor);
  check "determinism"
    (s1.mean_m = s2.mean_m && s1.rounds = s2.rounds && s1.ci_low = s2.ci_low)
    (Printf.sprintf "seed 1 twice: E[M] %.17g vs %.17g, rounds %.17g vs %.17g" s1.mean_m
       s2.mean_m s1.rounds s2.rounds);
  check "E[M] vs analysis" s1.agrees
    (Printf.sprintf "E[M]=%.4f vs eq.6 %s" s1.mean_m
       (match s1.analysis_m with Some b -> Printf.sprintf "%.4f" b | None -> "none"));
  let _, _, exact_rate = exact_baseline ~seed:2 ~receivers:10_000 ~reps:3 in
  check "aggregate/exact speedup sanity"
    (s1.rate >= smoke_min_speedup *. exact_rate)
    (Printf.sprintf "%.3e / %.3e = %.1fx < %.0fx" s1.rate exact_rate (s1.rate /. exact_rate)
       smoke_min_speedup);
  !failures

(* --- main --------------------------------------------------------------- *)

let () =
  match !mode with
  | Smoke ->
    if smoke () > 0 then exit 1;
    print_endline "bench-smoke ok"
  | Full ->
    let t0 = Unix.gettimeofday () in
    let regimes = Array.of_list full_regimes in
    (* Independent points, independent RNGs: shard across the domain pool.
       Concurrent points contend for cores, so per-point wall times are
       upper bounds; the headline speedup is re-measured sequentially. *)
    let samples =
      Array.to_list
        (Parallel.map ~pool:(Parallel.pool_sized !jobs) (Array.length regimes)
           (fun i -> run_regime ~seed:(100 + i) regimes.(i)))
    in
    List.iter print_sample samples;
    let exact_receivers = 10_000 and exact_reps = 20 in
    let _, exact_wall, exact_rate =
      exact_baseline ~seed:2 ~receivers:exact_receivers ~reps:exact_reps
    in
    Printf.printf "exact tier         R=%-8d                    reps=%-5d %9.2es %12.3e rx/s\n%!"
      exact_receivers exact_reps exact_wall exact_rate;
    let agg_1e4 =
      run_regime ~seed:100
        { label = "speedup-ref"; receivers = exact_receivers; k = 7; a = 0;
          bursty = false; scheme = Runner.Integrated_nak { a = 0; codec = `Rse }; reps = 2000 }
    in
    print_sample agg_1e4;
    let speedup = agg_1e4.rate /. exact_rate in
    let elapsed = Unix.gettimeofday () -. t0 in
    let samples = samples @ [ agg_1e4 ] in
    let json =
      json_of ~samples ~exact_rate ~exact_wall ~exact_receivers ~exact_reps ~speedup
        ~elapsed
    in
    let oc = open_out !out_path in
    output_string oc json;
    close_out oc;
    let disagreements = List.filter (fun s -> not s.agrees) samples in
    Printf.printf "headline: aggregate tier %.0fx the exact tier at R=10^4; wrote %s\n"
      speedup !out_path;
    if disagreements <> [] then begin
      List.iter
        (fun s ->
          Printf.eprintf "ANALYSIS DISAGREEMENT: %s R=%d k=%d\n" s.regime.label
            s.regime.receivers s.regime.k)
        disagreements;
      exit 1
    end
