module Runner = Rmcast.Runner
module Network = Rmcast.Network
module Rng = Rmcast.Rng
module Timing = Rmcast.Timing
module Tg_result = Rmcast.Tg_result

let timing = Timing.instantaneous

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

let lossless ~receivers = Network.independent (Rng.create ~seed:1 ()) ~receivers ~p:0.0

(* --- exact behaviour without loss --- *)

let test_arq_lossless () =
  let result = Rmcast.Tg_arq.run (lossless ~receivers:100) ~k:7 ~timing ~start:0.0 in
  Alcotest.(check int) "exactly k" 7 result.Tg_result.data_transmissions;
  Alcotest.(check int) "no parities" 0 result.Tg_result.parity_transmissions;
  Alcotest.(check int) "single round" 1 result.Tg_result.rounds;
  Alcotest.(check int) "no feedback" 0 result.Tg_result.feedback_messages;
  Alcotest.(check int) "no duplicates" 0 result.Tg_result.unnecessary_receptions;
  close "M=1" 1.0 (Tg_result.per_packet result)

let test_layered_lossless () =
  let result = Rmcast.Tg_layered.run (lossless ~receivers:100) ~k:7 ~h:2 ~timing ~start:0.0 in
  Alcotest.(check int) "k data" 7 result.Tg_result.data_transmissions;
  Alcotest.(check int) "h parities" 2 result.Tg_result.parity_transmissions;
  Alcotest.(check int) "single round" 1 result.Tg_result.rounds;
  (* every parity reception is unnecessary when nobody lost anything *)
  Alcotest.(check int) "parity overhead receptions" 200 result.Tg_result.unnecessary_receptions;
  close "M = n/k" (9.0 /. 7.0) (Tg_result.per_packet result)

let test_integrated_lossless () =
  let result =
    Rmcast.Tg_integrated.run (lossless ~receivers:100) ~k:7
      ~variant:Rmcast.Tg_integrated.Nak_rounds ~codec:`Rse ~rng:(Rng.create ~seed:2 ())
      ~timing ~start:0.0 ()
  in
  Alcotest.(check int) "k only" 7 (Tg_result.transmissions result);
  Alcotest.(check int) "one round" 1 result.Tg_result.rounds;
  Alcotest.(check int) "no NAKs" 0 result.Tg_result.feedback_messages

let test_integrated_proactive_lossless () =
  let result =
    Rmcast.Tg_integrated.run (lossless ~receivers:10) ~k:7 ~a:2
      ~variant:Rmcast.Tg_integrated.Open_loop ~codec:`Rse ~rng:(Rng.create ~seed:2 ())
      ~timing ~start:0.0 ()
  in
  Alcotest.(check int) "k + a packets" 9 (Tg_result.transmissions result)

(* --- agreement with the analysis (the paper's own cross-check) --- *)

let mc_tolerance = 0.05 (* 5%: 300 reps of a bounded variable *)

let agreement name ~analysis ~simulated =
  Alcotest.(check bool)
    (Printf.sprintf "%s: sim %.4f vs analysis %.4f" name simulated analysis)
    true
    (Float.abs (simulated -. analysis) /. analysis < mc_tolerance)

let test_arq_matches_analysis () =
  let e =
    Runner.estimate
      (Network.independent (Rng.create ~seed:2 ()) ~receivers:1000 ~p:0.01)
      ~k:7 ~scheme:Runner.No_fec ~reps:300 ()
  in
  agreement "no-FEC"
    ~analysis:
      (Rmcast.Arq.expected_transmissions
         ~population:(Rmcast.Receivers.homogeneous ~p:0.01 ~count:1000))
    ~simulated:(Runner.mean_m e)

let test_integrated_matches_bound () =
  let e =
    Runner.estimate
      (Network.independent (Rng.create ~seed:3 ()) ~receivers:1000 ~p:0.01)
      ~k:7 ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps:300 ()
  in
  agreement "integrated"
    ~analysis:
      (Rmcast.Integrated.expected_transmissions_unbounded ~k:7
         ~population:(Rmcast.Receivers.homogeneous ~p:0.01 ~count:1000) ())
    ~simulated:(Runner.mean_m e)

let test_layered_near_analysis () =
  (* The protocol machine repairs in small blocks, so it is slightly above
     the eq. (3) model which amortises repairs into full blocks; accept
     [analysis, analysis * 1.12]. *)
  let analysis =
    Rmcast.Layered.expected_transmissions ~k:7 ~h:1
      ~population:(Rmcast.Receivers.homogeneous ~p:0.01 ~count:1000)
  in
  let e =
    Runner.estimate
      (Network.independent (Rng.create ~seed:4 ()) ~receivers:1000 ~p:0.01)
      ~k:7 ~scheme:(Runner.Layered { h = 1 }) ~reps:300 ()
  in
  let simulated = Runner.mean_m e in
  Alcotest.(check bool)
    (Printf.sprintf "layered: sim %.4f vs analysis %.4f" simulated analysis)
    true
    (simulated > analysis *. 0.97 && simulated < analysis *. 1.12)

let test_open_loop_matches_nak_variant () =
  (* Without temporal correlation the two integrated variants have the same
     transmission count distribution. *)
  let run scheme seed =
    Runner.mean_m
      (Runner.estimate
         (Network.independent (Rng.create ~seed ()) ~receivers:500 ~p:0.02)
         ~k:10 ~scheme ~reps:300 ())
  in
  let open_loop = run (Runner.Integrated_open_loop { a = 0 }) 5 in
  let nak = run (Runner.Integrated_nak { a = 0; codec = `Rse }) 6 in
  close ~tol:0.05 "variants agree under memoryless loss" open_loop nak

(* --- orderings the paper reports --- *)

let test_fbt_below_independent () =
  (* Figures 11/12: shared loss needs fewer transmissions. *)
  let run net scheme seed =
    Runner.mean_m
      (Runner.estimate (net (Rng.create ~seed ())) ~k:7 ~scheme ~reps:200 ())
  in
  let independent rng = Network.independent rng ~receivers:1024 ~p:0.01 in
  let fbt rng = Network.fbt rng ~height:10 ~p:0.01 in
  Alcotest.(check bool) "no-FEC" true
    (run fbt Runner.No_fec 7 < run independent Runner.No_fec 8);
  Alcotest.(check bool) "integrated" true
    (run fbt (Runner.Integrated_nak { a = 0; codec = `Rse }) 9
    < run independent (Runner.Integrated_nak { a = 0; codec = `Rse }) 10)

let test_burst_loss_hurts_layered () =
  (* Figure 15: layered (7,1) under burst loss is worse than no FEC. *)
  let burst_net seed =
    Network.temporal (Rng.create ~seed ()) ~receivers:500 ~make:(fun rng ->
        Rmcast.Loss.markov2 rng ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0)
  in
  let timing = Timing.paper_burst in
  let layered =
    Runner.mean_m
      (Runner.estimate (burst_net 11) ~k:7 ~scheme:(Runner.Layered { h = 1 }) ~timing ~reps:150 ())
  in
  let nofec =
    Runner.mean_m (Runner.estimate (burst_net 12) ~k:7 ~scheme:Runner.No_fec ~timing ~reps:150 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "layered %.3f > no-FEC %.3f under bursts" layered nofec)
    true (layered > nofec)

let test_burst_loss_large_k_integrated_resists () =
  (* Figure 16: k=100 integrated rides out bursts better than k=7. *)
  let burst_net seed =
    Network.temporal (Rng.create ~seed ()) ~receivers:200 ~make:(fun rng ->
        Rmcast.Loss.markov2 rng ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0)
  in
  let timing = Timing.paper_burst in
  let run k seed =
    Runner.mean_m
      (Runner.estimate (burst_net seed) ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~timing
         ~reps:100 ())
  in
  Alcotest.(check bool) "k=100 < k=7" true (run 100 13 < run 7 14)

let test_unnecessary_receptions_ordering () =
  (* §2.1: parity repair nearly eliminates duplicate receptions. *)
  let run scheme seed =
    let e =
      Runner.estimate
        (Network.independent (Rng.create ~seed ()) ~receivers:1000 ~p:0.02)
        ~k:7 ~scheme ~reps:100 ()
    in
    Rmcast.Stats.Accumulator.mean e.Runner.unnecessary_per_receiver
  in
  let nofec = run Runner.No_fec 15 in
  let integrated = run (Runner.Integrated_nak { a = 0; codec = `Rse }) 16 in
  Alcotest.(check bool)
    (Printf.sprintf "unnecessary: integrated %.4f << no-FEC %.4f" integrated nofec)
    true
    (integrated < 0.5 *. nofec)

let test_open_loop_no_unnecessary () =
  let e =
    Runner.estimate
      (Network.independent (Rng.create ~seed:17 ()) ~receivers:1000 ~p:0.05)
      ~k:7 ~scheme:(Runner.Integrated_open_loop { a = 0 }) ~reps:50 ()
  in
  close "receivers leave when done" 0.0
    (Rmcast.Stats.Accumulator.mean e.Runner.unnecessary_per_receiver)

(* --- feedback --- *)

let test_integrated_feedback_is_one_per_round () =
  let net = Network.independent (Rng.create ~seed:18 ()) ~receivers:2000 ~p:0.05 in
  for i = 0 to 19 do
    let result =
      Rmcast.Tg_integrated.run net ~k:20 ~variant:Rmcast.Tg_integrated.Nak_rounds
        ~codec:`Rse ~rng:(Rng.create ~seed:2 ()) ~timing ~start:(float_of_int i) ()
    in
    Alcotest.(check int) "one NAK per repair round"
      (result.Tg_result.rounds - 1)
      result.Tg_result.feedback_messages
  done

let test_rounds_grow_with_population () =
  let rounds receivers seed =
    let e =
      Runner.estimate
        (Network.independent (Rng.create ~seed ()) ~receivers ~p:0.05)
        ~k:20 ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps:100 ()
    in
    Rmcast.Stats.Accumulator.mean e.Runner.rounds
  in
  Alcotest.(check bool) "more receivers, more rounds" true (rounds 10_000 19 > rounds 10 20)

(* --- estimator plumbing --- *)

let test_estimate_metadata () =
  let e =
    Runner.estimate
      (Network.independent (Rng.create ~seed:21 ()) ~receivers:10 ~p:0.1)
      ~k:5 ~scheme:Runner.No_fec ~reps:17 ()
  in
  Alcotest.(check int) "reps recorded" 17 e.Runner.reps;
  Alcotest.(check int) "k recorded" 5 e.Runner.k;
  Alcotest.(check int) "receivers recorded" 10 e.Runner.receivers;
  Alcotest.(check int) "accumulator count" 17
    (Rmcast.Stats.Accumulator.count e.Runner.transmissions_per_packet)

let test_scheme_names () =
  Alcotest.(check string) "no-fec" "no-fec" (Runner.scheme_name Runner.No_fec);
  Alcotest.(check string) "layered" "layered(h=2)" (Runner.scheme_name (Runner.Layered { h = 2 }));
  Alcotest.(check string) "i1" "integrated-1(a=1)"
    (Runner.scheme_name (Runner.Integrated_open_loop { a = 1 }));
  Alcotest.(check string) "i2" "integrated-2(a=0)"
    (Runner.scheme_name (Runner.Integrated_nak { a = 0; codec = `Rse }));
  Alcotest.(check string) "i2 over a non-RSE codec" "coded(rlnc,a=2)"
    (Runner.scheme_name (Runner.Integrated_nak { a = 2; codec = `Rlnc }))

let test_burst_histogram_totals () =
  let loss = Rmcast.Loss.bernoulli (Rng.create ~seed:22 ()) ~p:0.1 in
  let hist = Rmcast.Runner.burst_length_histogram loss ~packets:50_000 ~spacing:1.0 in
  (* Total losses = sum over runs of run length ~ p * packets. *)
  let losses =
    List.fold_left (fun acc (len, count) -> acc + (len * count)) 0
      (Rmcast.Stats.Histogram.to_sorted_list hist)
  in
  close ~tol:0.1 "loss mass" 5000.0 (float_of_int losses);
  (* Bernoulli: P(run = l) ~ geometric, mean 1/(1-p) ~ 1.11. *)
  close ~tol:0.05 "mean run" (1.0 /. 0.9) (Rmcast.Stats.Histogram.mean hist)

(* --- TG-tier golden pins --- *)

(* Every accumulator (mean, variance and count, bit for bit through %h) of
   [Runner.estimate] and [Tg_aggregate.estimate] over a scenario grid: the
   integrated-FEC NAK-rounds scheme for every codec x {independent, fbt,
   bursty, heterogeneous} x a in {0..3} x k in {1, 7, 16, 20}, the other
   schemes on the same networks, the aggregate tier at R in {1, 10^3, 10^6}
   and the [runner.*] counters.  Each group's per-scenario lines are pinned
   through their digest.  The expected values were produced while the MDS
   codecs still ran through a separate NAK-rounds loop from the rateless
   ones, so they keep that loop as the differential reference for the one
   loop that now serves every codec. *)

module Stats = Rmcast.Stats
module Aggregate = Rmcast.Aggregate
module Tg_aggregate = Rmcast.Tg_aggregate

let golden_nak a = Runner.Integrated_nak { a; codec = `Rse }

let acc_fields acc =
  Printf.sprintf "%h/%h/%d" (Stats.Accumulator.mean acc) (Stats.Accumulator.variance acc)
    (Stats.Accumulator.count acc)

let estimate_fields (e : Runner.estimate) =
  Printf.sprintf "%s k=%d R=%d reps=%d M=%s rounds=%s fb=%s unn=%s t=%s"
    (Runner.scheme_name e.Runner.scheme) e.Runner.k e.Runner.receivers e.Runner.reps
    (acc_fields e.Runner.transmissions_per_packet) (acc_fields e.Runner.rounds)
    (acc_fields e.Runner.feedback) (acc_fields e.Runner.unnecessary_per_receiver)
    (acc_fields e.Runner.completion_time)

let golden_network kind ~seed =
  let rng = Rng.create ~seed () in
  match kind with
  | `Independent -> (Network.independent rng ~receivers:20 ~p:0.1, Timing.instantaneous)
  | `Fbt -> (Network.fbt rng ~height:4 ~p:0.05, Timing.instantaneous)
  | `Bursty ->
    ( Network.temporal rng ~receivers:8 ~make:(fun r ->
          Rmcast.Loss.markov2 r ~p:0.05 ~mean_burst:2.0 ~send_rate:25.0),
      Timing.paper_burst )
  | `Heterogeneous ->
    (Network.heterogeneous rng ~classes:[ (0.02, 12); (0.2, 4) ], Timing.instantaneous)

let golden_networks =
  [ ("independent", `Independent); ("fbt", `Fbt); ("bursty", `Bursty);
    ("heterogeneous", `Heterogeneous) ]

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* The integrated-FEC NAK-rounds grid, resolved through the profile so the
   scheme (and its name) comes from [Runner]'s own codec mapping.  Odd [a]
   passes an explicit innovation stream, even [a] the default one. *)
let golden_nak_grid codec kind =
  List.concat_map
    (fun a ->
      List.map
        (fun k ->
          let seed = (1000 * a) + k in
          let network, timing = golden_network kind ~seed in
          let rng = if a mod 2 = 1 then Some (Rng.create ~seed:(seed + 1) ()) else None in
          estimate_fields
            (Runner.estimate network
               ~profile:{ Rmcast.Profile.default with k; proactive = a; codec }
               ?rng ~timing ~reps:12 ()))
        [ 1; 7; 16; 20 ])
    [ 0; 1; 2; 3 ]

let golden_other_schemes kind =
  List.map
    (fun scheme ->
      let network, timing = golden_network kind ~seed:77 in
      estimate_fields (Runner.estimate network ~k:7 ~scheme ~timing ~reps:12 ()))
    [ Runner.No_fec; Runner.Layered { h = 2 }; Runner.Integrated_open_loop { a = 1 };
      Runner.Carousel { h = 3 } ]

let golden_aggregate ~receivers ~bursty =
  let channel, timing =
    if bursty then
      (Aggregate.bursty ~p:0.05 ~mean_burst:2.0 ~send_rate:25.0, Timing.paper_burst)
    else (Aggregate.bernoulli ~p:0.05, Timing.instantaneous)
  in
  List.concat_map
    (fun scheme ->
      List.map
        (fun k ->
          let rng = Rng.create ~seed:(receivers + k) () in
          estimate_fields
            (Tg_aggregate.estimate rng ~receivers ~channel ~k ~scheme ~timing ~reps:10 ()))
        [ 7; 20 ])
    [ golden_nak 0; golden_nak 2; Runner.Integrated_open_loop { a = 0 };
      Runner.Integrated_open_loop { a = 1 } ]

let golden_metrics codec =
  let metrics = Rmcast.Metrics.create () in
  let network, timing = golden_network `Independent ~seed:5 in
  ignore
    (Runner.estimate network
       ~profile:{ Rmcast.Profile.default with k = 7; proactive = 1; codec }
       ~metrics ~timing ~reps:25 ());
  String.concat " "
    (List.map (fun (name, v) -> Printf.sprintf "%s=%d" name v) (Rmcast.Metrics.counters metrics))

let golden_tg_lines () =
  List.concat_map
    (fun codec ->
      List.map
        (fun (name, kind) ->
          ( Printf.sprintf "nak grid %s %s" (Rmcast.Profile.codec_to_string codec) name,
            digest (golden_nak_grid codec kind) ))
        golden_networks)
    [ `Rse; `Cauchy; `Rlnc; `Lt ]
  @ List.map (fun (name, kind) -> ("other schemes " ^ name, digest (golden_other_schemes kind)))
      golden_networks
  @ List.concat_map
      (fun receivers ->
        List.map
          (fun bursty ->
            ( Printf.sprintf "aggregate R=%d %s" receivers (if bursty then "bursty" else "bernoulli"),
              digest (golden_aggregate ~receivers ~bursty) ))
          [ false; true ])
      [ 1; 1000; 1_000_000 ]
  @ List.map
      (fun codec -> ("metrics " ^ Rmcast.Profile.codec_to_string codec, golden_metrics codec))
      [ `Rse; `Lt ]

let golden_tg_expected =
  [
    ("nak grid rse independent",
     "7e46d03fb2e40ef63258b9209497fb52");
    ("nak grid rse fbt",
     "47024de00693377c50d9ea214f838bc4");
    ("nak grid rse bursty",
     "5cc0a82e07a71ac1aaf9367a9c892d0c");
    ("nak grid rse heterogeneous",
     "ead34275ba847fee1890d1c6c8ef06b9");
    ("nak grid cauchy independent",
     "c9589c5432cacc2aacd18aa90c053502");
    ("nak grid cauchy fbt",
     "8b66a8ac87835857242979b10dc39237");
    ("nak grid cauchy bursty",
     "92a6e1877693b875be9916911b3aeb3b");
    ("nak grid cauchy heterogeneous",
     "85992d6ba18132321a677b60f65ac412");
    ("nak grid rlnc independent",
     "d91eded6ba31c17dbd5bd9e11d4117a5");
    ("nak grid rlnc fbt",
     "40e9432cc65e1cf28b17b933f8533864");
    ("nak grid rlnc bursty",
     "8a12f67ff0f4534a17fd5bdde8202289");
    ("nak grid rlnc heterogeneous",
     "375752a766963d371c727e0291a6f325");
    ("nak grid lt independent",
     "3d6237a3871de9c01e2c923d435003cf");
    ("nak grid lt fbt",
     "4d25c8f28014cc056f969d410ffba163");
    ("nak grid lt bursty",
     "d75736fef7e0c45978549fbc7411c760");
    ("nak grid lt heterogeneous",
     "96aa6a561d1c19c6e18b2dfe2877884b");
    ("other schemes independent",
     "e38921c553d394ef3c26bad7a8c95991");
    ("other schemes fbt",
     "9b738f1f7a8b17266fa8b2fcbd8b9a4e");
    ("other schemes bursty",
     "9f12f1452b60540f1b279aed104e7254");
    ("other schemes heterogeneous",
     "810b9f9c3ce7ca795001428bdbb141c4");
    ("aggregate R=1 bernoulli",
     "8e8a2c11a00c83bdb384c5e533fc8684");
    ("aggregate R=1 bursty",
     "470a0c4c77d123c28234671021c9d1ae");
    ("aggregate R=1000 bernoulli",
     "8223884a5b223ccdd25b505fa066b7fa");
    ("aggregate R=1000 bursty",
     "832a4bca829ccb8fe9d7dd2d1d25823d");
    ("aggregate R=1000000 bernoulli",
     "9148e869c5c74166b35f5139dc3af322");
    ("aggregate R=1000000 bursty",
     "c6ee3949435952bd7f7f3d4400092d83");
    ("metrics rse",
     "runner.feedback=32 runner.rounds=57 runner.tgs=25 runner.transmissions=250 runner.unnecessary=787");
    ("metrics lt",
     "runner.feedback=88 runner.rounds=113 runner.tgs=25 runner.transmissions=314 runner.unnecessary=1709");
  ]

let test_golden_tg_tiers () =
  List.iter2
    (fun (name, actual) (expected_name, expected) ->
      Alcotest.(check string) "scenario" expected_name name;
      Alcotest.(check string) name expected actual)
    (golden_tg_lines ()) golden_tg_expected

(* --- CLI: out-of-range numbers are usage errors --- *)

(* Each input once crashed [rmc] with an uncaught exception (exit 125);
   [--scheme integrated] once ran the unbounded scheme while ignoring
   [--parities].  All must be usage errors: exit 124, no internal error.
   The [codec decode] inputs read containers the test builds first from a
   k = 4, h = 2, 64-byte encoding of [input.bin]: cut short, junk, more
   loss than the parities cover, and a payload size that does not match.
   [faults] is no command: [serve --transport udp --faults] injects faults
   into a real run. *)
let bad_cli_inputs =
  [
    "simulate --reps 0";
    "simulate --tier aggregate -r 0";
    "simulate --burst 0";
    "simulate --scheme integrated --parities 1";
    "analyze -p 1.0";
    "sweep -k 0";
    "latency -k 0";
    "feedback -k 0";
    "plan -k 0";
    "endhost -k 0";
    "capacity -k 0";
    "trace record trace.bin -p 1.0";
    "codec encode input.txt output.fec --parities 300";
    "codec encode input.txt output.fec -k 0";
    "codec decode truncated.fec output.bin --payload 64";
    "codec decode junk.fec output.bin --payload 64";
    "codec decode input.fec output.bin --payload 64 --drop 0.6";
    "codec decode input.fec output.bin --payload 32";
    "faults drop=0.1";
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_cli_usage_errors () =
  let rmc = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rmc.exe" in
  (* Absolute, because each run starts in its own scratch directory. *)
  let rmc = if Filename.is_relative rmc then Filename.concat (Sys.getcwd ()) rmc else rmc in
  Alcotest.(check bool) "rmc built" true (Sys.file_exists rmc);
  let dir = Filename.temp_dir "rmc-cli" "" in
  Out_channel.with_open_text (Filename.concat dir "input.txt") (fun oc ->
      output_string oc "hello, multicast\n");
  let stderr_log = Filename.concat dir "stderr.log" in
  let run args =
    Sys.command
      (Printf.sprintf "cd %s && %s %s > /dev/null 2> %s" (Filename.quote dir)
         (Filename.quote rmc) args (Filename.quote stderr_log))
  in
  let read name = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all in
  let write name contents =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc contents)
  in
  let input = String.init 1000 (fun i -> Char.chr ((i * 131 + 7) mod 256)) in
  write "input.bin" input;
  Alcotest.(check int) "encode the container" 0
    (run "codec encode input.bin input.fec -k 4 --parities 2 --payload 64");
  let container = read "input.fec" in
  write "truncated.fec" (String.sub container 0 (String.length container / 2 + 3));
  write "junk.fec" (String.init 300 (fun i -> Char.chr ((i * 97 + 1) mod 256)));
  (* Every packet twice: the second copies are no-ops. *)
  write "doubled.fec" (container ^ container);
  Alcotest.(check int) "doubled container decodes" 0
    (run "codec decode doubled.fec doubled.bin --payload 64");
  Alcotest.(check string) "doubled container gives back the input" input (read "doubled.bin");
  List.iter
    (fun args ->
      let status = run args in
      let stderr = In_channel.with_open_text stderr_log In_channel.input_all in
      Alcotest.(check int) (args ^ ": exit status") 124 status;
      Alcotest.(check bool) (args ^ ": no internal error") false
        (contains stderr "internal error"))
    bad_cli_inputs;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let suite =
  [
    Alcotest.test_case "ARQ lossless exact" `Quick test_arq_lossless;
    Alcotest.test_case "layered lossless exact" `Quick test_layered_lossless;
    Alcotest.test_case "integrated lossless exact" `Quick test_integrated_lossless;
    Alcotest.test_case "integrated proactive lossless" `Quick test_integrated_proactive_lossless;
    Alcotest.test_case "ARQ sim = analysis" `Quick test_arq_matches_analysis;
    Alcotest.test_case "integrated sim = bound" `Quick test_integrated_matches_bound;
    Alcotest.test_case "layered sim near analysis" `Quick test_layered_near_analysis;
    Alcotest.test_case "open-loop = NAK-rounds (memoryless)" `Quick test_open_loop_matches_nak_variant;
    Alcotest.test_case "FBT below independent (Figs 11/12)" `Quick test_fbt_below_independent;
    Alcotest.test_case "bursts hurt layered (Fig 15)" `Quick test_burst_loss_hurts_layered;
    Alcotest.test_case "large k resists bursts (Fig 16)" `Quick
      test_burst_loss_large_k_integrated_resists;
    Alcotest.test_case "unnecessary receptions ordering" `Quick test_unnecessary_receptions_ordering;
    Alcotest.test_case "open loop: zero unnecessary" `Quick test_open_loop_no_unnecessary;
    Alcotest.test_case "one NAK per repair round" `Quick test_integrated_feedback_is_one_per_round;
    Alcotest.test_case "rounds grow with R" `Quick test_rounds_grow_with_population;
    Alcotest.test_case "estimate metadata" `Quick test_estimate_metadata;
    Alcotest.test_case "scheme names" `Quick test_scheme_names;
    Alcotest.test_case "burst histogram mass" `Quick test_burst_histogram_totals;
    Alcotest.test_case "TG tiers match their golden values" `Quick test_golden_tg_tiers;
    Alcotest.test_case "rmc: out-of-range numbers are usage errors" `Quick
      test_cli_usage_errors;
  ]
