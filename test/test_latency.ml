module Latency = Rmcast.Latency
module Receivers = Rmcast.Receivers
module Runner = Rmcast.Runner
module Network = Rmcast.Network
module Rng = Rmcast.Rng

let timing = { Latency.spacing = 0.040; feedback_delay = 0.300 }
let proto_timing = { Rmcast.Timing.spacing = 0.040; feedback_delay = 0.300 }

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

let pop ?(p = 0.01) count = Receivers.homogeneous ~p ~count

let test_lossless_floor () =
  (* p = 0: one volley exactly. *)
  close "no-FEC floor" (7.0 *. 0.04) (Latency.no_fec ~population:(pop ~p:0.0 100) ~k:7 timing);
  close "integrated floor" (7.0 *. 0.04)
    (Latency.integrated ~population:(pop ~p:0.0 100) ~k:7 timing ());
  close "layered floor" (8.0 *. 0.04)
    (Latency.layered ~population:(pop ~p:0.0 100) ~k:7 ~h:1 timing)

let test_proactive_adds_volley_time () =
  let base = Latency.integrated ~population:(pop ~p:0.0 10) ~k:7 timing () in
  let with_a = Latency.integrated ~population:(pop ~p:0.0 10) ~k:7 ~a:2 timing () in
  close "a = 2 adds 2 slots" (base +. (2.0 *. 0.04)) with_a

let test_latency_grows_with_population () =
  let at count = Latency.integrated ~population:(pop count) ~k:7 timing () in
  Alcotest.(check bool) "monotone in R" true (at 1 < at 1000 && at 1000 < at 1_000_000)

let test_integrated_beats_no_fec_at_scale () =
  (* Feedback gaps dominate; integrated needs fewer rounds and far fewer
     repair slots. *)
  let population = pop 100_000 in
  Alcotest.(check bool) "integrated faster" true
    (Latency.integrated ~population ~k:7 timing ()
    < Latency.no_fec ~population ~k:7 timing)

let test_model_matches_simulation_no_fec () =
  let receivers = 500 in
  let model = Latency.no_fec ~population:(pop receivers) ~k:7 timing in
  let estimate =
    Runner.estimate
      (Network.independent (Rng.create ~seed:31 ()) ~receivers ~p:0.01)
      ~k:7 ~scheme:Runner.No_fec ~timing:proto_timing ~reps:400 ()
  in
  let simulated = Rmcast.Stats.Accumulator.mean estimate.Runner.completion_time in
  Alcotest.(check bool)
    (Printf.sprintf "no-FEC latency: model %.3f vs sim %.3f" model simulated)
    true
    (Float.abs (model -. simulated) /. simulated < 0.15)

let test_model_matches_simulation_integrated () =
  let receivers = 500 in
  let model = Latency.integrated ~population:(pop receivers) ~k:7 timing () in
  let estimate =
    Runner.estimate
      (Network.independent (Rng.create ~seed:32 ()) ~receivers ~p:0.01)
      ~k:7 ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~timing:proto_timing ~reps:400 ()
  in
  let simulated = Rmcast.Stats.Accumulator.mean estimate.Runner.completion_time in
  Alcotest.(check bool)
    (Printf.sprintf "integrated latency: model %.3f vs sim %.3f" model simulated)
    true
    (Float.abs (model -. simulated) /. simulated < 0.15)

let test_completion_time_accumulated () =
  let estimate =
    Runner.estimate
      (Network.independent (Rng.create ~seed:33 ()) ~receivers:10 ~p:0.0)
      ~k:5 ~scheme:Runner.No_fec ~timing:proto_timing ~reps:20 ()
  in
  close "lossless completion = one volley" (5.0 *. 0.04)
    (Rmcast.Stats.Accumulator.mean estimate.Runner.completion_time)

let test_bad_timing_rejected () =
  (* A negative or NaN spacing or feedback delay would print a negative
     or meaningless time; every model refuses it. *)
  let population = pop 10 in
  let models =
    [
      ("no FEC", fun timing -> Latency.no_fec ~population ~k:7 timing);
      ("layered", fun timing -> Latency.layered ~population ~k:7 ~h:1 timing);
      ("integrated", fun timing -> Latency.integrated ~population ~k:7 timing ());
    ]
  in
  let bad =
    [
      ("negative spacing", { timing with Latency.spacing = -1.0 });
      ("negative delay", { timing with Latency.feedback_delay = -1.0 });
      ("NaN spacing", { timing with Latency.spacing = Float.nan });
      ("NaN delay", { timing with Latency.feedback_delay = Float.nan });
    ]
  in
  List.iter
    (fun (model, f) ->
      List.iter
        (fun (what, t) ->
          Alcotest.check_raises (model ^ ": " ^ what)
            (Invalid_argument "Latency: spacing and feedback_delay must be finite and >= 0")
            (fun () -> ignore (f t)))
        bad)
    models

let suite =
  [
    Alcotest.test_case "lossless floors" `Quick test_lossless_floor;
    Alcotest.test_case "proactive parities add slots" `Quick test_proactive_adds_volley_time;
    Alcotest.test_case "latency grows with R" `Quick test_latency_grows_with_population;
    Alcotest.test_case "integrated faster at scale" `Quick test_integrated_beats_no_fec_at_scale;
    Alcotest.test_case "model vs sim: no-FEC" `Quick test_model_matches_simulation_no_fec;
    Alcotest.test_case "model vs sim: integrated" `Quick test_model_matches_simulation_integrated;
    Alcotest.test_case "runner accumulates completion time" `Quick test_completion_time_accumulated;
    Alcotest.test_case "negative or NaN timing rejected" `Quick test_bad_timing_rejected;
  ]
