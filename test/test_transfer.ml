module Transfer = Rmcast.Transfer
module Planner = Rmcast.Planner
module Network = Rmcast.Network
module Rng = Rmcast.Rng

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

(* --- packetize / reassemble --- *)

let test_packetize_roundtrip () =
  List.iter
    (fun length ->
      let message = String.init length (fun i -> Char.chr (i mod 251)) in
      let packets = Transfer.packetize ~payload_size:64 message in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %d bytes" length)
        message
        (Transfer.reassemble ~payload_size:64 packets))
    [ 1; 59; 60; 61; 64; 128; 1000; 12345 ]

let test_packetize_sizes () =
  let packets = Transfer.packetize ~payload_size:100 (String.make 96 'a') in
  Alcotest.(check int) "4-byte prefix fits in one" 1 (Array.length packets);
  let packets = Transfer.packetize ~payload_size:100 (String.make 97 'a') in
  Alcotest.(check int) "spills into two" 2 (Array.length packets);
  Array.iter (fun p -> Alcotest.(check int) "padded" 100 (Bytes.length p)) packets

let test_reassemble_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Transfer.reassemble: no packets") (fun () ->
      ignore (Transfer.reassemble ~payload_size:10 [||]));
  Alcotest.check_raises "size" (Invalid_argument "Transfer.reassemble: packet size mismatch")
    (fun () -> ignore (Transfer.reassemble ~payload_size:10 [| Bytes.make 9 ' ' |]));
  let corrupt = Bytes.make 10 '\xFF' in
  Alcotest.check_raises "corrupt prefix"
    (Invalid_argument "Transfer.reassemble: corrupt length prefix") (fun () ->
      ignore (Transfer.reassemble ~payload_size:10 [| corrupt |]))

(* --- send --- *)

let test_send_verified () =
  let rng = Rng.create ~seed:1 () in
  let network = Network.independent (Rng.split rng) ~receivers:50 ~p:0.02 in
  let message = String.init 20_000 (fun i -> Char.chr ((i * 31) mod 256)) in
  let profile = { Rmcast.Profile.default with payload_size = 512; k = 10; h = 20 } in
  let outcome = Transfer.send_exn ~profile ~network ~rng:(Rng.split rng) message in
  Alcotest.(check bool) "verified" true outcome.Transfer.verified;
  Alcotest.(check bool) "efficiency below 1" true (outcome.Transfer.efficiency < 1.0);
  Alcotest.(check bool) "efficiency sane" true (outcome.Transfer.efficiency > 0.5)

let test_send_lossless_efficiency () =
  let rng = Rng.create ~seed:2 () in
  let network = Network.independent (Rng.split rng) ~receivers:10 ~p:0.0 in
  let message = String.make 10_236 'q' in
  (* 10236 + 4 = 10240 = exactly 10 packets of 1024 *)
  let outcome = Transfer.send_exn ~network ~rng:(Rng.split rng) message in
  Alcotest.(check int) "no overhead packets" 10_240 outcome.Transfer.bytes_sent;
  close "efficiency = message/sent" (10_236.0 /. 10_240.0) outcome.Transfer.efficiency

let test_send_empty_rejected () =
  let rng = Rng.create ~seed:3 () in
  let network = Network.independent rng ~receivers:2 ~p:0.0 in
  Alcotest.check_raises "empty" (Invalid_argument "Transfer.send: empty message") (fun () ->
      ignore (Transfer.send_exn ~network ~rng ""));
  match Transfer.send ~network ~rng "" with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error e ->
    Alcotest.(check string) "error string" "Transfer.send: empty message"
      (Rmcast.Error.to_string e)

(* A non-finite pacing or slot is an [Error] before anything runs, not an
   exception from the engine when it is asked to schedule at that time. *)
let test_send_rejects_non_finite_timing () =
  let rng = Rng.create ~seed:3 () in
  let network = Network.independent rng ~receivers:2 ~p:0.0 in
  let base = Rmcast.Profile.default in
  List.iter
    (fun (field, value, profile) ->
      let name = Printf.sprintf "%s = %g" field value in
      match Transfer.send ~profile ~network ~rng "hello" with
      | Ok _ -> Alcotest.failf "%s: expected Error" name
      | Error e ->
        let message = Rmcast.Error.to_string e in
        Alcotest.(check bool)
          (name ^ " names the field: " ^ message)
          true
          (String.starts_with ~prefix:("Transfer.send: " ^ field) message))
    (List.concat_map
       (fun value ->
         [
           ("pacing", value, { base with pacing = value });
           ("slot", value, { base with slot = value });
         ])
       [ infinity; nan ])

(* Each input rule, one row: every entry point that takes the input
   returns [Error] naming itself, and none raises.  The rules are the ones
   the simulator and the UDP transport share (the profile's payload bound,
   the 16-bit TG count) plus the simulator's own (start, churn); the
   delay rule is [Np.validate_config]'s alone (the "NP validation" case). *)
let test_entry_points_return_errors () =
  let module Udp = Rmcast.Udp_np in
  let rng = Rng.create ~seed:5 () in
  let network = Network.independent (Rng.split rng) ~receivers:3 ~p:0.0 in
  let rng = Rng.split rng in
  let base = Rmcast.Profile.default in
  let returns_error ~context name f =
    match f () with
    | Ok _ -> Alcotest.failf "%s: %s accepted" context name
    | Error e ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s names the entry point" context name)
        context e.Rmcast.Error.context
    | exception e ->
      Alcotest.failf "%s: %s raised %s" context name (Printexc.to_string e)
  in
  (* At k = 1 and 5-byte payloads, 327,681 bytes plus the 4-byte length
     prefix are 65,537 packets: one TG more than the wire numbers. *)
  let tg_overflow = { base with k = 1; h = 1; payload_size = 5 } in
  let too_many_tgs = String.make ((65_537 * 5) - 4) 'x' in
  List.iter
    (fun (name, profile, message, packets) ->
      returns_error ~context:"Transfer.send" name (fun () ->
          Transfer.send ~profile ~network ~rng message);
      returns_error ~context:"Transfer.send_all" name (fun () ->
          Transfer.send_all ~profile ~network ~rng [ message ]);
      let data = Array.make packets (Bytes.make profile.Rmcast.Profile.payload_size 'x') in
      returns_error ~context:"Udp_np.run_local" name (fun () ->
          Udp.run_local ~config:(Udp.config_of_profile profile) ~receivers:1 ~loss:0.0
            ~seed:0 ~data ()))
    [
      ("payload_size = 65511", { base with payload_size = 65_511 }, "hello", 1);
      ("65,537 TGs at k = 1", tg_overflow, too_many_tgs, 65_537);
      ("k = 0", { base with k = 0 }, "hello", 1);
    ];
  (* The simulator admits a payload up to the wire's bound; UDP stops at
     what one kernel datagram carries behind the header. *)
  returns_error ~context:"Udp_np.run_local" "payload_size = 65482" (fun () ->
      let profile = { base with payload_size = 65_482 } in
      Udp.run_local ~config:(Udp.config_of_profile profile) ~receivers:1 ~loss:0.0 ~seed:0
        ~data:[| Bytes.make 65_482 'x' |] ());
  List.iter
    (fun start ->
      let name = Printf.sprintf "start = %g" start in
      returns_error ~context:"Transfer.send" name (fun () ->
          Transfer.send ~virtual_start:start ~network ~rng "hello"))
    [ infinity; nan; -1.0 ];
  List.iter
    (fun (name, ev) ->
      returns_error ~context:"Transfer.send" name (fun () ->
          Transfer.send ~churn:[ ev ] ~virtual_start:1.0 ~network ~rng "hello"))
    [
      ("churn receiver out of range", { Rmcast.Np.Mux.receiver = 3; at = 1.5; action = `Leave });
      ("churn receiver negative", { Rmcast.Np.Mux.receiver = -1; at = 1.5; action = `Leave });
      ("churn before the start", { Rmcast.Np.Mux.receiver = 0; at = 0.5; action = `Leave });
      ("churn at infinity", { Rmcast.Np.Mux.receiver = 0; at = infinity; action = `Join });
      ("churn at nan", { Rmcast.Np.Mux.receiver = 0; at = nan; action = `Join });
    ];
  (* Whatever was refused, the same arguments still run. *)
  Alcotest.(check bool) "a run after the rejections verifies" true
    (Rmcast.Error.get_exn (Transfer.send_all ~network ~rng [ "some payload bytes" ]))
      .Transfer.all_verified

(* With churn, [send] is the one-flow [Np.Mux] run it always was: the same
   draws, so the same counts. *)
let test_send_with_churn () =
  let profile = { Rmcast.Profile.default with k = 8; h = 24; payload_size = 256 } in
  let message = String.init 6_000 (fun i -> Char.chr ((i * 13) mod 256)) in
  let churn =
    [
      { Rmcast.Np.Mux.receiver = 1; at = 0.01; action = `Leave };
      { Rmcast.Np.Mux.receiver = 4; at = 0.05; action = `Join };
    ]
  in
  let setup () =
    let rng = Rng.create ~seed:6 () in
    let network = Network.independent (Rng.split rng) ~receivers:6 ~p:0.05 in
    (network, Rng.split rng)
  in
  let network, rng = setup () in
  let outcome = Transfer.send_exn ~profile ~churn ~network ~rng message in
  Alcotest.(check bool) "verified" true outcome.Transfer.verified;
  let network, rng = setup () in
  let mux = Rmcast.Np.Mux.create (Rmcast.Engine.create ()) in
  let flow =
    Rmcast.Np.Mux.add_flow mux ~config:(Rmcast.Np.config_of_profile profile) ~churn ~network
      ~rng ~data:(Transfer.packetize ~payload_size:256 message) ()
  in
  Rmcast.Np.Mux.run mux;
  let counts (r : Rmcast.Np.report) =
    [ r.data_tx; r.parity_tx; r.polls; r.naks_sent; r.naks_suppressed; r.parities_encoded;
      r.packets_decoded; r.unnecessary_receptions ]
  in
  let mux_report = Rmcast.Np.Mux.report flow in
  Alcotest.(check (list int)) "counts equal the one-flow Mux run" (counts mux_report)
    (counts outcome.Transfer.report);
  Alcotest.(check (list (pair int int))) "ejections equal" mux_report.Rmcast.Np.ejected
    outcome.Transfer.report.Rmcast.Np.ejected;
  Alcotest.(check bool) "the late joiner took part" true
    (Rmcast.Np.Mux.present flow ~receiver:4 && outcome.Transfer.report.Rmcast.Np.naks_sent > 0)

(* --- planner --- *)

let test_plan_lossless () =
  let plan = Planner.plan ~k:20 ~p:0.0 ~receivers:1000 () in
  Alcotest.(check int) "no proactive parities" 0 plan.Planner.proactive;
  Alcotest.(check int) "no budget" 0 plan.Planner.budget;
  close "E[M] = 1" 1.0 plan.Planner.expected_m;
  close "single round certain" 1.0 plan.Planner.single_round_probability

let test_plan_meets_target () =
  let plan = Planner.plan ~k:20 ~p:0.05 ~receivers:1000 ~target_single_round:0.9 () in
  Alcotest.(check bool) "target met" true (plan.Planner.single_round_probability >= 0.9);
  Alcotest.(check bool) "not trivially k" true (plan.Planner.proactive < 20);
  Alcotest.(check bool) "budget covers proactive" true (plan.Planner.budget >= plan.Planner.proactive)

let test_plan_proactive_monotone_in_receivers () =
  let at receivers = (Planner.plan ~k:20 ~p:0.05 ~receivers ()).Planner.proactive in
  Alcotest.(check bool) "more receivers need more parities" true (at 100_000 >= at 10);
  Alcotest.(check bool) "nontrivial at scale" true (at 100_000 > 0)

let test_plan_budget_residual () =
  (* With the budget chosen at 1e-6 residual, NP should essentially never
     eject: verify by running the protocol at the planned parameters. *)
  let p = 0.05 and receivers = 100 in
  let plan = Planner.plan ~k:10 ~p ~receivers () in
  let rng = Rng.create ~seed:4 () in
  let config =
    {
      Rmcast.Np.default_config with
      k = plan.Planner.k;
      h = plan.Planner.budget;
      proactive = plan.Planner.proactive;
      payload_size = 128;
    }
  in
  let data = Array.init 200 (fun _ -> Bytes.init 128 (fun _ -> Char.chr (Rng.int rng 256))) in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  let report = Rmcast.Np.run ~config ~network ~rng:(Rng.split rng) ~data () in
  Alcotest.(check bool) "planned run intact" true report.Rmcast.Np.delivered_intact;
  Alcotest.(check (list (pair int int))) "no ejections" [] report.Rmcast.Np.ejected

let test_plan_validation () =
  Alcotest.check_raises "bad p" (Invalid_argument "Planner.plan: p outside [0,1)") (fun () ->
      ignore (Planner.plan ~k:10 ~p:1.0 ~receivers:10 ()))

let test_loss_estimate () =
  close "laplace smoothing" (1.0 /. 2.0) (Planner.loss_estimate ~lost:0 ~total:0);
  close "typical" (11.0 /. 102.0) (Planner.loss_estimate ~lost:10 ~total:100);
  Alcotest.check_raises "bad counts"
    (Invalid_argument "Planner.loss_estimate: need 0 <= lost <= total") (fun () ->
      ignore (Planner.loss_estimate ~lost:5 ~total:3))

let test_effective_receivers_inverts_analysis () =
  (* Feeding the model's own E[M] back should recover R (up to grid
     effects). *)
  List.iter
    (fun r ->
      let m =
        Rmcast.Arq.expected_transmissions
          ~population:(Rmcast.Receivers.homogeneous ~p:0.01 ~count:r)
      in
      let recovered = Planner.effective_receivers ~measured_m_nofec:m ~p:0.01 in
      Alcotest.(check bool)
        (Printf.sprintf "R=%d recovered as %d" r recovered)
        true
        (float_of_int (abs (recovered - r)) /. float_of_int r < 0.02))
    [ 10; 1000; 100_000 ]

let test_effective_receivers_shrinks_under_shared_loss () =
  (* Measured no-FEC E[M] over an FBT is below the independent-loss value,
     so the effective population must be smaller than the real one. *)
  let height = 10 in
  let receivers = 1 lsl height in
  let e =
    Rmcast.Runner.estimate
      (Network.fbt (Rng.create ~seed:5 ()) ~height ~p:0.01)
      ~k:7 ~scheme:Rmcast.Runner.No_fec ~reps:300 ()
  in
  let effective =
    Planner.effective_receivers ~measured_m_nofec:(Rmcast.Runner.mean_m e) ~p:0.01
  in
  Alcotest.(check bool)
    (Printf.sprintf "effective %d < actual %d" effective receivers)
    true (effective < receivers)

let suite =
  [
    Alcotest.test_case "packetize roundtrip" `Quick test_packetize_roundtrip;
    Alcotest.test_case "packetize sizes" `Quick test_packetize_sizes;
    Alcotest.test_case "reassemble validation" `Quick test_reassemble_validation;
    Alcotest.test_case "send verified under loss" `Quick test_send_verified;
    Alcotest.test_case "send lossless efficiency" `Quick test_send_lossless_efficiency;
    Alcotest.test_case "send rejects empty" `Quick test_send_empty_rejected;
    Alcotest.test_case "send rejects non-finite timing" `Quick
      test_send_rejects_non_finite_timing;
    Alcotest.test_case "every entry point returns Error" `Quick
      test_entry_points_return_errors;
    Alcotest.test_case "send with churn is the Mux run" `Quick test_send_with_churn;
    Alcotest.test_case "plan lossless" `Quick test_plan_lossless;
    Alcotest.test_case "plan meets single-round target" `Quick test_plan_meets_target;
    Alcotest.test_case "plan proactive monotone in R" `Quick test_plan_proactive_monotone_in_receivers;
    Alcotest.test_case "planned budget avoids ejection" `Quick test_plan_budget_residual;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "loss estimate" `Quick test_loss_estimate;
    Alcotest.test_case "effective receivers inversion" `Quick test_effective_receivers_inverts_analysis;
    Alcotest.test_case "effective receivers under shared loss" `Quick
      test_effective_receivers_shrinks_under_shared_loss;
  ]
