module Np = Rmcast.Np
module N2 = Rmcast.N2
module Network = Rmcast.Network
module Rng = Rmcast.Rng

let payloads rng ~count ~size =
  Array.init count (fun _ -> Bytes.init size (fun _ -> Char.chr (Rng.int rng 256)))

let base_config = { Np.default_config with payload_size = 256 }

let run_np ?(config = base_config) ~receivers ~p ~packets ~seed () =
  let rng = Rng.create ~seed () in
  let data = payloads rng ~count:packets ~size:config.Np.payload_size in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  Np.run ~config ~network ~rng:(Rng.split rng) ~data ()

let test_np_lossless_is_pure_stream () =
  let report = run_np ~receivers:50 ~p:0.0 ~packets:100 ~seed:1 () in
  Alcotest.(check bool) "intact" true report.Np.delivered_intact;
  Alcotest.(check int) "data once each" 100 report.Np.data_tx;
  Alcotest.(check int) "no parities" 0 report.Np.parity_tx;
  Alcotest.(check int) "no NAKs" 0 report.Np.naks_sent;
  Alcotest.(check int) "no decode work" 0 report.Np.packets_decoded;
  Alcotest.(check int) "one poll per TG" report.Np.transmission_groups report.Np.polls

let test_np_delivers_under_loss () =
  let report = run_np ~receivers:100 ~p:0.05 ~packets:200 ~seed:2 () in
  Alcotest.(check bool) "intact" true report.Np.delivered_intact;
  Alcotest.(check (list (pair int int))) "nobody ejected" [] report.Np.ejected;
  Alcotest.(check bool) "repair happened" true (report.Np.parity_tx > 0)

let test_np_matches_integrated_bound () =
  let receivers = 300 and p = 0.01 in
  let report = run_np ~receivers ~p ~packets:400 ~seed:3 () in
  let bound =
    Rmcast.Integrated.expected_transmissions_unbounded ~k:base_config.Np.k
      ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers) ()
  in
  let m = Np.transmissions_per_packet report in
  Alcotest.(check bool)
    (Printf.sprintf "M %.3f within 10%% of bound %.3f" m bound)
    true
    (Float.abs (m -. bound) /. bound < 0.10)

let test_np_suppression_active () =
  let report = run_np ~receivers:500 ~p:0.02 ~packets:200 ~seed:4 () in
  Alcotest.(check bool) "suppressed > sent" true
    (report.Np.naks_suppressed > report.Np.naks_sent);
  (* Near-ideal feedback: around one NAK per repair round; polls count the
     rounds, so NAKs should be a small multiple of polls. *)
  Alcotest.(check bool)
    (Printf.sprintf "naks %d <= 3 * polls %d" report.Np.naks_sent report.Np.polls)
    true
    (report.Np.naks_sent <= 3 * report.Np.polls)

let test_np_proactive_parities () =
  let config = { base_config with proactive = 2 } in
  let report = run_np ~config ~receivers:20 ~p:0.0 ~packets:100 ~seed:5 () in
  (* 100 packets / k=20 = 5 TGs, 2 proactive parities each. *)
  Alcotest.(check int) "proactive parities" 10 report.Np.parity_tx;
  Alcotest.(check bool) "intact" true report.Np.delivered_intact

let test_np_short_final_tg () =
  (* 47 packets with k = 20: TGs of 20, 20, 7. *)
  let report = run_np ~receivers:30 ~p:0.02 ~packets:47 ~seed:6 () in
  Alcotest.(check int) "three TGs" 3 report.Np.transmission_groups;
  Alcotest.(check bool) "intact" true report.Np.delivered_intact;
  Alcotest.(check int) "all data exactly once" 47 report.Np.data_tx

let test_np_single_packet () =
  let report = run_np ~receivers:10 ~p:0.1 ~packets:1 ~seed:7 () in
  Alcotest.(check bool) "intact" true report.Np.delivered_intact

let test_np_ejection () =
  let config = { base_config with k = 5; h = 1 } in
  let rng = Rng.create ~seed:8 () in
  let data = payloads rng ~count:50 ~size:config.Np.payload_size in
  let network = Network.independent (Rng.split rng) ~receivers:100 ~p:0.15 in
  let report = Np.run ~config ~network ~rng:(Rng.split rng) ~data () in
  Alcotest.(check bool) "ejections happen with h=1 at p=0.15" true (report.Np.ejected <> []);
  Alcotest.(check bool) "hence not fully delivered" false report.Np.delivered_intact

let test_np_pre_encode_counts () =
  let config = { base_config with pre_encode = true } in
  let report = run_np ~config ~receivers:10 ~p:0.0 ~packets:100 ~seed:9 () in
  (* 5 TGs x h=40 parities encoded up front even though none is sent. *)
  Alcotest.(check int) "all parities encoded" (5 * config.Np.h) report.Np.parities_encoded;
  Alcotest.(check int) "none transmitted" 0 report.Np.parity_tx

let test_np_online_encode_counts_match_tx () =
  let report = run_np ~receivers:200 ~p:0.05 ~packets:100 ~seed:10 () in
  Alcotest.(check int) "encode exactly what is sent" report.Np.parity_tx
    report.Np.parities_encoded

let test_np_decode_work_scales_with_loss () =
  let low = run_np ~receivers:100 ~p:0.01 ~packets:200 ~seed:11 () in
  let high = run_np ~receivers:100 ~p:0.10 ~packets:200 ~seed:12 () in
  Alcotest.(check bool) "more loss, more reconstruction" true
    (high.Np.packets_decoded > low.Np.packets_decoded)

let test_np_temporal_network () =
  let rng = Rng.create ~seed:13 () in
  let data = payloads rng ~count:100 ~size:base_config.Np.payload_size in
  let network =
    Network.temporal (Rng.split rng) ~receivers:50 ~make:(fun rng ->
        Rmcast.Loss.markov2 rng ~p:0.02 ~mean_burst:2.0 ~send_rate:1000.0)
  in
  let report = Np.run ~config:base_config ~network ~rng:(Rng.split rng) ~data () in
  Alcotest.(check bool) "intact under bursts" true report.Np.delivered_intact

let test_np_validation () =
  let rng = Rng.create ~seed:14 () in
  let network = Network.independent rng ~receivers:2 ~p:0.0 in
  Alcotest.check_raises "empty data" (Invalid_argument "Np.run: no data") (fun () ->
      ignore (Np.run ~network ~rng ~data:[||] ()));
  Alcotest.check_raises "payload mismatch" (Invalid_argument "Np.run: payload size mismatch")
    (fun () -> ignore (Np.run ~network ~rng ~data:[| Bytes.make 5 'x' |] ()));
  (* A negative or non-finite time is refused by validation, before the
     engine is asked to schedule at it. *)
  let data = [| Bytes.make Np.default_config.Np.payload_size 'x' |] in
  List.iter
    (fun (name, config) ->
      match Np.run ~config ~network ~rng ~data () with
      | _ -> Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument message ->
        Alcotest.(check bool)
          (name ^ " refused up front: " ^ message)
          true
          (String.starts_with ~prefix:"Np: " message))
    [
      ("delay = infinity", { Np.default_config with delay = infinity });
      ("delay = nan", { Np.default_config with delay = nan });
      ("delay = -0.1", { Np.default_config with delay = -0.1 });
      ("spacing = infinity", { Np.default_config with spacing = infinity });
      ("slot = infinity", { Np.default_config with slot = infinity });
    ]

(* Engine steps to drain one [Np.Mux] flow, counted one [Engine.step] at a
   time. *)
let mux_steps ~network ~data =
  let engine = Rmcast.Engine.create () in
  let mux = Np.Mux.create engine in
  let flow =
    Np.Mux.add_flow mux ~config:base_config ~network ~rng:(Rng.create ~seed:7 ()) ~data ()
  in
  let steps = ref 0 in
  while Rmcast.Engine.step engine do
    incr steps
  done;
  (!steps, Np.Mux.report flow)

(* A multicast is one engine event however many receivers it reaches.
   Lossless: no NAKs, no timers, so R = 1 and R = 300 take the same
   steps.  Lossy at one receiver only: its NAKs reach the other R - 1
   receivers in one delivery event, so R = 2 and R = 300 still match. *)
let test_np_engine_events_per_packet () =
  let data = payloads (Rng.create ~seed:21 ()) ~count:40 ~size:base_config.Np.payload_size in
  let lossless receivers =
    mux_steps ~network:(Network.independent (Rng.create ~seed:22 ()) ~receivers ~p:0.0) ~data
  in
  let steps_1, report_1 = lossless 1 and steps_300, report_300 = lossless 300 in
  Alcotest.(check bool) "lossless intact" true
    (report_1.Np.delivered_intact && report_300.Np.delivered_intact);
  Alcotest.(check int) "lossless: steps independent of R" steps_1 steps_300;
  let one_lossy receivers =
    let first = ref true in
    let make rng =
      let p = if !first then 0.2 else 0.0 in
      first := false;
      Rmcast.Loss.bernoulli rng ~p
    in
    mux_steps ~network:(Network.temporal (Rng.create ~seed:23 ()) ~receivers ~make) ~data
  in
  let steps_2, report_2 = one_lossy 2 and steps_300, report_300 = one_lossy 300 in
  Alcotest.(check bool) "lossy intact" true
    (report_2.Np.delivered_intact && report_300.Np.delivered_intact);
  Alcotest.(check bool) "the lossy receiver NAKed" true (report_300.Np.naks_sent > 0);
  Alcotest.(check int) "same NAKs" report_2.Np.naks_sent report_300.Np.naks_sent;
  Alcotest.(check int) "lossy: steps independent of R" steps_2 steps_300

(* --- N2 --- *)

let n2_config = { N2.default_config with payload_size = 256 }

let run_n2 ~receivers ~p ~packets ~seed =
  let rng = Rng.create ~seed () in
  let data = payloads rng ~count:packets ~size:n2_config.N2.payload_size in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  N2.run ~config:n2_config ~network ~rng:(Rng.split rng) ~data ()

let test_n2_lossless () =
  let report = run_n2 ~receivers:50 ~p:0.0 ~packets:100 ~seed:15 in
  Alcotest.(check bool) "intact" true report.N2.delivered_intact;
  Alcotest.(check int) "no retransmissions" 100 report.N2.data_tx;
  Alcotest.(check int) "no NAKs" 0 report.N2.naks_sent

let test_n2_delivers_under_loss () =
  let report = run_n2 ~receivers:100 ~p:0.05 ~packets:150 ~seed:16 in
  Alcotest.(check bool) "intact" true report.N2.delivered_intact;
  Alcotest.(check bool) "retransmissions happened" true (report.N2.data_tx > 150)

let test_n2_matches_arq_analysis () =
  let receivers = 300 and p = 0.02 in
  let report = run_n2 ~receivers ~p ~packets:400 ~seed:17 in
  let analysis =
    Rmcast.Arq.expected_transmissions
      ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers)
  in
  let m = N2.transmissions_per_packet report in
  Alcotest.(check bool)
    (Printf.sprintf "M %.3f within 10%% of %.3f" m analysis)
    true
    (Float.abs (m -. analysis) /. analysis < 0.10)

let test_np_beats_n2_on_bandwidth_and_duplicates () =
  let np = run_np ~receivers:200 ~p:0.03 ~packets:200 ~seed:18 () in
  let n2 = run_n2 ~receivers:200 ~p:0.03 ~packets:200 ~seed:19 in
  Alcotest.(check bool) "fewer transmissions" true
    (Np.transmissions_per_packet np < N2.transmissions_per_packet n2);
  Alcotest.(check bool) "far fewer unnecessary receptions" true
    (np.Np.unnecessary_receptions * 3 < n2.N2.unnecessary_receptions)

(* --- N2 golden pins --- *)

(* Every counter of N2's report, and the duration bit for bit, at a few
   (seed, loss, R) points.  The expected strings were produced by the
   hand-written N2 engine loop; moving it onto a shared driver must
   reproduce them exactly. *)
let n2_fields (r : N2.report) =
  Printf.sprintf
    "rx=%d packets=%d data=%d polls=%d naks=%d supp=%d unn=%d rounds=%d dur=%h intact=%b"
    r.N2.receivers r.N2.packets r.N2.data_tx r.N2.polls r.N2.naks_sent r.N2.naks_suppressed
    r.N2.unnecessary_receptions r.N2.rounds r.N2.duration r.N2.delivered_intact

let golden_baselines ~seed ~loss ~receivers =
  let rng = Rng.create ~seed () in
  let data = payloads rng ~count:40 ~size:64 in
  let network () =
    let rng = Rng.create ~seed:(seed + 1000) () in
    match loss with
    | `Bernoulli p -> Network.independent rng ~receivers ~p
    | `Bursty p ->
      Network.temporal rng ~receivers ~make:(fun r ->
          Rmcast.Loss.markov2 r ~p ~mean_burst:3.0 ~send_rate:1000.0)
  in
  (* The pins were recorded with an N1 run splitting [rng] first;
     [Rng.split] advances its parent, so that draw stays. *)
  ignore (Rng.split rng);
  let n2 =
    N2.run ~config:{ N2.default_config with payload_size = 64 } ~network:(network ())
      ~rng:(Rng.split rng) ~data ()
  in
  n2_fields n2

let golden_baseline_points =
  [
    ( (51, `Bernoulli 0.0, 4),
      "rx=4 packets=40 data=40 polls=1 naks=0 supp=0 unn=0 rounds=1 dur=0x1.0a3d70a3d70a6p-4 \
       intact=true" );
    ( (52, `Bernoulli 0.02, 20),
      "rx=20 packets=40 data=48 polls=2 naks=10 supp=0 unn=147 rounds=2 \
       dur=0x1.000b4183ec3bcp-2 intact=true" );
    ( (53, `Bernoulli 0.05, 60),
      "rx=60 packets=40 data=81 polls=3 naks=80 supp=35 unn=2251 rounds=3 \
       dur=0x1.cce8a05b35a9cp-2 intact=true" );
    ( (54, `Bernoulli 0.2, 8),
      "rx=8 packets=40 data=85 polls=4 naks=59 supp=20 unn=226 rounds=4 \
       dur=0x1.3b111a680e3d5p-1 intact=true" );
    ( (55, `Bursty 0.05, 12),
      "rx=12 packets=40 data=44 polls=2 naks=4 supp=0 unn=39 rounds=2 \
       dur=0x1.fe06a305c837p-3 intact=true" );
  ]

let test_golden_baselines () =
  List.iter
    (fun ((seed, loss, receivers), n2) ->
      Alcotest.(check string) (Printf.sprintf "N2 seed %d" seed) n2
        (golden_baselines ~seed ~loss ~receivers))
    golden_baseline_points

(* One payload byte changed after the sender's machine emitted the packet
   but before it is sealed for the wire: every receiver gets it with a
   valid CRC and decodes it, so only the delivery check can tell. *)
let flip_first_byte = function
  | Rmcast.Header.Data ({ tg_id = 0; index = 0; payload; _ } as d) ->
    let payload = Bytes.copy payload in
    Bytes.set payload 0 (Char.chr (Char.code (Bytes.get payload 0) lxor 0x01));
    Rmcast.Header.Data { d with payload }
  | message -> message

let test_np_corrupt_delivery_detected () =
  let data = payloads (Rng.create ~seed:5 ()) ~count:40 ~size:base_config.Np.payload_size in
  let run tamper =
    let mux = Np.Mux.create (Rmcast.Engine.create ()) in
    let network = Network.independent (Rng.create ~seed:6 ()) ~receivers:10 ~p:0.0 in
    let flow =
      Np.Mux.add_flow mux ~config:base_config ~network ~rng:(Rng.create ~seed:7 ()) ~data ()
    in
    Np.For_testing.tamper flow tamper;
    Np.Mux.run mux;
    Alcotest.(check bool) "every receiver delivered every TG" true (Np.Mux.complete flow);
    (Np.Mux.report flow).Np.delivered_intact
  in
  Alcotest.(check bool) "untouched run intact" true (run Fun.id);
  Alcotest.(check bool) "one wrong byte caught" false (run flip_first_byte)

let base_suite =
  [
    Alcotest.test_case "NP catches a wrong delivered byte" `Quick
      test_np_corrupt_delivery_detected;
    Alcotest.test_case "NP lossless pure stream" `Quick test_np_lossless_is_pure_stream;
    Alcotest.test_case "NP delivers under loss" `Quick test_np_delivers_under_loss;
    Alcotest.test_case "NP matches eq.(6) bound" `Quick test_np_matches_integrated_bound;
    Alcotest.test_case "NP NAK suppression active" `Quick test_np_suppression_active;
    Alcotest.test_case "NP proactive parities" `Quick test_np_proactive_parities;
    Alcotest.test_case "NP short final TG" `Quick test_np_short_final_tg;
    Alcotest.test_case "NP single packet" `Quick test_np_single_packet;
    Alcotest.test_case "NP ejection on tiny budget" `Quick test_np_ejection;
    Alcotest.test_case "NP pre-encode accounting" `Quick test_np_pre_encode_counts;
    Alcotest.test_case "NP online encode = parity tx" `Quick test_np_online_encode_counts_match_tx;
    Alcotest.test_case "NP decode work scales with p" `Quick test_np_decode_work_scales_with_loss;
    Alcotest.test_case "NP over bursty channel" `Quick test_np_temporal_network;
    Alcotest.test_case "NP validation" `Quick test_np_validation;
    Alcotest.test_case "NP engine events do not scale with receivers" `Quick
      test_np_engine_events_per_packet;
    Alcotest.test_case "N2 lossless" `Quick test_n2_lossless;
    Alcotest.test_case "N2 delivers under loss" `Quick test_n2_delivers_under_loss;
    Alcotest.test_case "N2 matches ARQ analysis" `Quick test_n2_matches_arq_analysis;
    Alcotest.test_case "NP beats N2" `Quick test_np_beats_n2_on_bandwidth_and_duplicates;
    Alcotest.test_case "N2 reports match their golden pins" `Quick test_golden_baselines;
  ]

(* --- randomized protocol invariants --- *)

let qcheck_np_invariants =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun k ->
      int_range 0 24 >>= fun h ->
      int_range 1 40 >>= fun receivers ->
      int_range 1 50 >>= fun packets ->
      oneofl [ 0.0; 0.01; 0.05; 0.15 ] >>= fun p ->
      int_range 0 1_000_000 >>= fun seed ->
      return (k, h, receivers, packets, p, seed))
  in
  QCheck.Test.make ~count:40 ~name:"NP invariants over random configurations"
    (QCheck.make gen) (fun (k, h, receivers, packets, p, seed) ->
      let config =
        { Np.default_config with k; h; payload_size = 64; spacing = 0.0005; slot = 0.02 }
      in
      let rng = Rng.create ~seed () in
      let data = payloads rng ~count:packets ~size:64 in
      let network = Network.independent (Rng.split rng) ~receivers ~p in
      let report = Np.run ~config ~network ~rng:(Rng.split rng) ~data () in
      (* Invariants: data sent exactly once each; parity never exceeds the
         budget; the session either delivers everywhere or ejects; no
         phantom counters. *)
      report.Np.data_tx = packets
      && report.Np.parity_tx <= report.Np.transmission_groups * h
      && (report.Np.delivered_intact || report.Np.ejected <> [])
      && report.Np.naks_sent + report.Np.naks_suppressed >= 0
      && report.Np.polls >= report.Np.transmission_groups)

let invariant_suite = [ QCheck_alcotest.to_alcotest qcheck_np_invariants ]

let suite = base_suite @ invariant_suite
