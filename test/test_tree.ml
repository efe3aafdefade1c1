module Network = Rmcast.Network
module Loss = Rmcast.Loss
module Rng = Rmcast.Rng

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

(* --- Gilbert-Elliott --- *)

let test_gilbert_elliott_rate () =
  let loss =
    Loss.gilbert_elliott (Rng.create ~seed:5 ()) ~mu01:1.0 ~mu10:9.0 ~p_good:0.01 ~p_bad:0.5
  in
  (* pi1 = 0.1: marginal = 0.9*0.01 + 0.1*0.5 = 0.059 *)
  close "declared" 0.059 (Loss.loss_probability loss);
  let hits = ref 0 in
  let n = 200_000 in
  for i = 0 to n - 1 do
    if Loss.lost loss (float_of_int i *. 0.05) then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "empirical %.4f" rate) true
    (Float.abs (rate -. 0.059) < 0.006)

let test_gilbert_elliott_burstier_than_bernoulli () =
  let ge =
    Loss.gilbert_elliott (Rng.create ~seed:6 ()) ~mu01:0.5 ~mu10:4.5 ~p_good:0.0 ~p_bad:0.6
  in
  let burst = Loss.expected_burst_length ge ~spacing:0.05 in
  Alcotest.(check bool) (Printf.sprintf "burst %.3f > bernoulli" burst) true
    (burst > 1.0 /. (1.0 -. Loss.loss_probability ge) +. 0.05)

let test_gilbert_elliott_validation () =
  Alcotest.check_raises "p order"
    (Invalid_argument "Loss.gilbert_elliott: need 0 <= p_good <= p_bad < 1") (fun () ->
      ignore
        (Loss.gilbert_elliott (Rng.create ()) ~mu01:1.0 ~mu10:1.0 ~p_good:0.5 ~p_bad:0.1))

(* --- Feedback model --- *)

let test_feedback_closed_form_edges () =
  close "no suppression possible" 10.0
    (Rmcast.Feedback.expected_naks_single_window ~firers:10 ~window:0.1 ~delay:0.1);
  close "perfect suppression" 1.0
    (Rmcast.Feedback.expected_naks_single_window ~firers:10 ~window:0.1 ~delay:0.0);
  close "nobody" 0.0 (Rmcast.Feedback.expected_naks_single_window ~firers:0 ~window:0.1 ~delay:0.01)

let test_feedback_closed_form_matches_simulation () =
  let rng = Rng.create ~seed:7 () in
  List.iter
    (fun (firers, delay) ->
      let closed =
        Rmcast.Feedback.expected_naks_single_window ~firers ~window:0.1 ~delay
      in
      let simulated =
        Rmcast.Feedback.simulate_suppression rng ~slot_counts:[| firers |] ~slot:0.1 ~delay
          ~reps:20_000
      in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d D=%g: closed %.3f vs sim %.3f" firers delay closed simulated)
        true
        (Float.abs (closed -. simulated) < 0.05 *. closed +. 0.05))
    [ (5, 0.01); (30, 0.025); (100, 0.005); (3, 0.09) ]

let test_feedback_slotting_beats_single_window () =
  let rng = Rng.create ~seed:8 () in
  (* 40 firers: all in one window vs spread by need over 4 slots. *)
  let one_window =
    Rmcast.Feedback.simulate_suppression rng ~slot_counts:[| 40 |] ~slot:0.1 ~delay:0.025
      ~reps:10_000
  in
  let slotted =
    Rmcast.Feedback.simulate_suppression rng ~slot_counts:[| 2; 8; 30 |] ~slot:0.1 ~delay:0.025
      ~reps:10_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "slotted %.2f < flat %.2f" slotted one_window)
    true (slotted < one_window)

let test_feedback_predicts_np () =
  (* Predict NP's NAK volume per repair round and compare with the
     event-driven machine (R = 500, p = 0.02, k = 20). *)
  let receivers = 500 and p = 0.02 in
  let config = { Rmcast.Np.default_config with payload_size = 128 } in
  let slot_counts =
    Rmcast.Feedback.slot_counts ~k:config.Rmcast.Np.k ~a:0 ~p ~receivers
  in
  let predicted =
    Rmcast.Feedback.simulate_suppression (Rng.create ~seed:9 ()) ~slot_counts
      ~slot:config.Rmcast.Np.slot ~delay:config.Rmcast.Np.delay ~reps:4_000
  in
  let rng = Rng.create ~seed:10 () in
  let data = Array.init 400 (fun _ -> Bytes.init 128 (fun _ -> Char.chr (Rng.int rng 256))) in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  let report = Rmcast.Np.run ~config ~network ~rng:(Rng.split rng) ~data () in
  (* First-round NAKs per TG (20 TGs; later rounds have far fewer firers). *)
  let observed = float_of_int report.Rmcast.Np.naks_sent /. float_of_int report.Rmcast.Np.transmission_groups in
  Alcotest.(check bool)
    (Printf.sprintf "predicted %.2f vs observed %.2f NAKs/TG" predicted observed)
    true
    (observed < 2.5 *. predicted +. 1.0 && predicted < 2.5 *. observed +. 1.0)

let test_recommended_slot () =
  close "4x delay" 0.1 (Rmcast.Feedback.recommended_slot ~delay:0.025)

let suite =
  [
    Alcotest.test_case "gilbert-elliott rate" `Quick test_gilbert_elliott_rate;
    Alcotest.test_case "gilbert-elliott burstiness" `Quick test_gilbert_elliott_burstier_than_bernoulli;
    Alcotest.test_case "gilbert-elliott validation" `Quick test_gilbert_elliott_validation;
    Alcotest.test_case "feedback closed-form edges" `Quick test_feedback_closed_form_edges;
    Alcotest.test_case "feedback closed form = MC" `Quick test_feedback_closed_form_matches_simulation;
    Alcotest.test_case "slotting reduces NAKs" `Quick test_feedback_slotting_beats_single_window;
    Alcotest.test_case "feedback predicts NP" `Quick test_feedback_predicts_np;
    Alcotest.test_case "recommended slot" `Quick test_recommended_slot;
  ]
