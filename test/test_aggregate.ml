(* The aggregate simulation tier: tracked-cohort equivalence with the exact
   NP interpreter, distributional agreement between the tiers, and agreement
   with the closed forms of lib/analysis. *)

module Aggregate = Rmcast.Aggregate
module Tg_aggregate = Rmcast.Tg_aggregate
module Np = Rmcast.Np
module Np_aggregate = Rmcast.Np_aggregate
module Network = Rmcast.Network
module Runner = Rmcast.Runner
module Rng = Rmcast.Rng
module Stats = Rmcast.Stats
module Recorder = Rmcast.Recorder

let p = 0.01

let payloads rng ~count ~size =
  Array.init count (fun _ -> Bytes.init size (fun _ -> Char.chr (Rng.int rng 256)))

(* --- cohort equivalence ------------------------------------------------- *)

(* With population = cohort the aggregate interpreter must not merely match
   Np statistically — it must consume the same random draws in the same
   order and produce the identical event/effect streams.  Both runs below
   rebuild the same seeded inputs from scratch (networks carry RNG state,
   so they cannot be shared). *)
let equivalence_run ~receivers ~packets ~seed =
  let config = { Np.default_config with payload_size = 128 } in
  let make_inputs () =
    let rng = Rng.create ~seed () in
    let data = payloads rng ~count:packets ~size:config.Np.payload_size in
    let network = Network.independent (Rng.split rng) ~receivers ~p:0.02 in
    (data, network, Rng.split rng)
  in
  let exact_recorder = Recorder.create () in
  let exact =
    let data, network, rng = make_inputs () in
    let engine = Rmcast.Engine.create () in
    let mux = Np.Mux.create engine in
    let flow =
      Np.Mux.add_flow mux ~config ~recorder:exact_recorder ~network ~rng ~data ()
    in
    Np.Mux.run mux;
    Np.Mux.report flow
  in
  let agg_recorder = Recorder.create () in
  let agg =
    let data, network, rng = make_inputs () in
    Np_aggregate.run ~config ~cohort:receivers ~population:receivers ~network ~rng ~data
      ()
  and () =
    (* Re-run through the Mux API with a recorder to capture the streams. *)
    let data, network, rng = make_inputs () in
    let engine = Rmcast.Engine.create () in
    let mux = Np_aggregate.Mux.create engine in
    let flow =
      Np_aggregate.Mux.add_flow mux ~config ~recorder:agg_recorder ~cohort:receivers
        ~population:receivers ~network ~rng ~data ()
    in
    Np_aggregate.Mux.run mux;
    Alcotest.(check bool) "mux flow complete" true (Np_aggregate.Mux.complete flow)
  in
  (exact, exact_recorder, agg, agg_recorder)

let test_cohort_event_identical () =
  let exact, exact_rec, agg, agg_rec =
    equivalence_run ~receivers:64 ~packets:60 ~seed:42
  in
  Alcotest.(check bool) "exact intact" true exact.Np.delivered_intact;
  Alcotest.(check bool) "aggregate intact" true agg.Np_aggregate.delivered_intact;
  Alcotest.(check int) "data_tx" exact.Np.data_tx agg.Np_aggregate.data_tx;
  Alcotest.(check int) "parity_tx" exact.Np.parity_tx agg.Np_aggregate.parity_tx;
  Alcotest.(check int) "polls" exact.Np.polls agg.Np_aggregate.polls;
  Alcotest.(check int) "naks_sent" exact.Np.naks_sent agg.Np_aggregate.cohort_naks_sent;
  Alcotest.(check int) "naks_suppressed" exact.Np.naks_suppressed
    agg.Np_aggregate.cohort_naks_suppressed;
  Alcotest.(check int) "decoded" exact.Np.packets_decoded
    agg.Np_aggregate.packets_decoded;
  let exact_entries = Recorder.entries exact_rec in
  let agg_entries = Recorder.entries agg_rec in
  Alcotest.(check int) "stream length" (List.length exact_entries)
    (List.length agg_entries);
  List.iter2
    (fun (a : Recorder.entry) (b : Recorder.entry) ->
      Alcotest.(check string) "actor" a.Recorder.actor b.Recorder.actor;
      Alcotest.(check bool) "kind" true (a.Recorder.kind = b.Recorder.kind);
      Alcotest.(check string) "body" a.Recorder.body b.Recorder.body)
    exact_entries agg_entries

(* A remainder behind the cohort must not perturb the transfer's liveness:
   everyone (tracked and aggregate) finishes, and the remainder forces at
   least as much repair as the cohort alone. *)
let test_remainder_completes () =
  let config = { Np.default_config with payload_size = 128 } in
  let rng = Rng.create ~seed:7 () in
  let data = payloads rng ~count:60 ~size:config.Np.payload_size in
  let network = Network.independent (Rng.split rng) ~receivers:32 ~p in
  let report =
    Np_aggregate.run ~config ~cohort:32 ~channel:(Aggregate.bernoulli ~p)
      ~population:20_000 ~network ~rng:(Rng.split rng) ~data ()
  in
  Alcotest.(check bool) "intact" true report.Np_aggregate.delivered_intact;
  Alcotest.(check int) "population" 20_000 report.Np_aggregate.population;
  Alcotest.(check int) "cohort" 32 report.Np_aggregate.cohort;
  Alcotest.(check int) "nobody ejected" 0 report.Np_aggregate.agg_ejected;
  Alcotest.(check int) "remainder all complete" (20_000 - 32)
    report.Np_aggregate.agg_complete;
  (* With 20k receivers at p = 1%, every TG sees a loss: repair must have
     happened, and the population must have spoken. *)
  Alcotest.(check bool) "parities flowed" true (report.Np_aggregate.parity_tx > 0);
  Alcotest.(check bool) "aggregate NAKed" true (report.Np_aggregate.agg_naks_sent > 0)

(* The remainder rides on an Np.Mux flow; a flow the tier rejects must be
   refused before that flow is scheduled on the shared engine. *)
let test_rejected_flow_schedules_nothing () =
  let config = { Np.default_config with payload_size = 128 } in
  let rng = Rng.create ~seed:8 () in
  let data = payloads rng ~count:20 ~size:config.Np.payload_size in
  let network = Network.independent (Rng.split rng) ~receivers:4 ~p in
  let engine = Rmcast.Engine.create () in
  let mux = Np_aggregate.Mux.create engine in
  Alcotest.check_raises "remainder without a channel"
    (Invalid_argument "Np_aggregate: ~channel required when population > cohort")
    (fun () ->
      ignore
        (Np_aggregate.Mux.add_flow mux ~config ~cohort:4 ~population:100 ~network
           ~rng:(Rng.split rng) ~data ()));
  Alcotest.(check int) "engine untouched" 0 (Rmcast.Engine.pending engine)

(* --- tier-vs-analysis --------------------------------------------------- *)

let test_extra_parities_expectation () =
  List.iter
    (fun receivers ->
      let sampler = Aggregate.Extra_parities.create ~k:7 ~a:0 ~p ~receivers in
      let analytic =
        Rmcast.Integrated.expected_extra ~k:7 ~a:0
          ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers)
      in
      let got = Aggregate.Extra_parities.expected sampler in
      Alcotest.(check bool)
        (Printf.sprintf "E[L] R=%d: %.6f vs %.6f" receivers got analytic)
        true
        (Float.abs (got -. analytic) <= 1e-3 *. Float.max 1.0 analytic))
    [ 100; 10_000; 1_000_000 ]

let test_open_loop_matches_eq6 () =
  let receivers = 100_000 and k = 7 and reps = 2000 in
  let rng = Rng.create ~seed:11 () in
  let est =
    Tg_aggregate.estimate rng ~receivers ~channel:(Aggregate.bernoulli ~p) ~k
      ~scheme:(Runner.Integrated_open_loop { a = 0 }) ~reps ()
  in
  let bound =
    Rmcast.Integrated.expected_transmissions_unbounded ~k
      ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers) ()
  in
  let mean = Stats.Accumulator.mean est.Runner.transmissions_per_packet in
  let se = Stats.Accumulator.std_error est.Runner.transmissions_per_packet in
  Alcotest.(check bool)
    (Printf.sprintf "E[M] %.4f vs eq.6 %.4f (se %.4f)" mean bound se)
    true
    (Float.abs (mean -. bound) <= 3.5 *. se)

let test_nak_rounds_straddle_eq6 () =
  (* Eq. 6 is a lower bound for NAK rounds (round-granular batches can
     overshoot L by at most the last batch) — the mean must sit at or just
     above it. *)
  let receivers = 100_000 and k = 7 and reps = 1000 in
  let rng = Rng.create ~seed:12 () in
  let est =
    Tg_aggregate.estimate rng ~receivers ~channel:(Aggregate.bernoulli ~p) ~k
      ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps ()
  in
  let bound =
    Rmcast.Integrated.expected_transmissions_unbounded ~k
      ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers) ()
  in
  let mean = Stats.Accumulator.mean est.Runner.transmissions_per_packet in
  let se = Stats.Accumulator.std_error est.Runner.transmissions_per_packet in
  Alcotest.(check bool)
    (Printf.sprintf "E[M] %.4f vs bound %.4f" mean bound)
    true
    (mean >= bound -. (3.5 *. se) && mean <= (1.05 *. bound) +. (3.5 *. se))

let test_scale_point_eq6 () =
  (* bench/scale.exe's R = 10^4 rate point: the same seed twice gives
     bit-identical statistics, and E[M] sits no more than 3 standard errors
     below eq. 6 and no more than 5% (+ 3 se) above it. *)
  let receivers = 10_000 and k = 7 and reps = 400 in
  let run () =
    Tg_aggregate.estimate (Rng.create ~seed:1 ()) ~receivers ~channel:(Aggregate.bernoulli ~p)
      ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse })
      ~timing:Rmcast.Timing.instantaneous ~reps ()
  in
  let stats (e : Runner.estimate) =
    let m = e.Runner.transmissions_per_packet in
    (Stats.Accumulator.mean m, Stats.Accumulator.mean e.Runner.rounds,
     fst (Stats.Accumulator.confidence95 m))
  in
  let est = run () in
  Alcotest.(check bool) "same seed twice: identical E[M], rounds and CI" true
    (stats est = stats (run ()));
  let m = est.Runner.transmissions_per_packet in
  let mean = Stats.Accumulator.mean m and se = Stats.Accumulator.std_error m in
  let bound =
    Rmcast.Integrated.expected_transmissions_unbounded ~k ~a:0
      ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "E[M] %.4f vs eq.6 %.4f (se %.4f)" mean bound se)
    true
    (mean >= bound -. (3.0 *. se) && mean <= (1.05 *. bound) +. (3.0 *. se))

(* --- tier-vs-tier ------------------------------------------------------- *)

let combined_sigma a b =
  sqrt ((Stats.Accumulator.std_error a ** 2.0) +. (Stats.Accumulator.std_error b ** 2.0))

let check_tiers_agree name exact_acc agg_acc =
  let me = Stats.Accumulator.mean exact_acc and ma = Stats.Accumulator.mean agg_acc in
  let sigma = combined_sigma exact_acc agg_acc in
  Alcotest.(check bool)
    (Printf.sprintf "%s: exact %.4f vs aggregate %.4f (sigma %.4f)" name me ma sigma)
    true
    (Float.abs (me -. ma) <= 3.5 *. sigma)

let test_tiers_agree_bernoulli () =
  let receivers = 256 and k = 7 and reps = 600 in
  let rng = Rng.create ~seed:21 () in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  let exact =
    Runner.estimate network ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse })
      ~timing:Rmcast.Timing.instantaneous ~reps ()
  in
  let agg =
    Tg_aggregate.estimate (Rng.split rng) ~receivers ~channel:(Aggregate.bernoulli ~p) ~k
      ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps ()
  in
  check_tiers_agree "E[M]" exact.Runner.transmissions_per_packet
    agg.Runner.transmissions_per_packet;
  check_tiers_agree "rounds" exact.Runner.rounds agg.Runner.rounds;
  check_tiers_agree "unnecessary" exact.Runner.unnecessary_per_receiver
    agg.Runner.unnecessary_per_receiver

let test_tiers_agree_bursty () =
  let receivers = 128 and k = 7 and reps = 400 in
  let mean_burst = 2.0 and send_rate = 25.0 in
  let rng = Rng.create ~seed:22 () in
  let network =
    Network.temporal (Rng.split rng) ~receivers ~make:(fun rng ->
        Rmcast.Loss.markov2 rng ~p ~mean_burst ~send_rate)
  in
  let exact =
    Runner.estimate network ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse })
      ~timing:Rmcast.Timing.paper_burst ~reps ()
  in
  let agg =
    Tg_aggregate.estimate (Rng.split rng) ~receivers
      ~channel:(Aggregate.bursty ~p ~mean_burst ~send_rate) ~k
      ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~timing:Rmcast.Timing.paper_burst ~reps
      ()
  in
  check_tiers_agree "E[M] (bursty)" exact.Runner.transmissions_per_packet
    agg.Runner.transmissions_per_packet;
  check_tiers_agree "rounds (bursty)" exact.Runner.rounds agg.Runner.rounds

let test_volley_matches_thinning () =
  (* One multinomial split must be distributed like per-packet thinning:
     compare mean survivors-missing and mean max-deficit over many draws. *)
  let receivers = 2000 and k = 7 and a = 2 and reps = 2000 in
  let stat_of run =
    let missing = Stats.Accumulator.create () in
    let deficit = Stats.Accumulator.create () in
    for _ = 1 to reps do
      let pop = run () in
      Stats.Accumulator.add missing (float_of_int (Aggregate.missing pop));
      Stats.Accumulator.add deficit (float_of_int (Aggregate.max_deficit pop))
    done;
    (missing, deficit)
  in
  let rng1 = Rng.create ~seed:31 () in
  let volley_missing, volley_deficit =
    stat_of (fun () ->
        let pop =
          Aggregate.create rng1 ~size:receivers ~k ~channel:(Aggregate.bernoulli ~p)
            ~time:0.0
        in
        Aggregate.bernoulli_volley pop rng1 ~packets:(k + a);
        pop)
  in
  let rng2 = Rng.create ~seed:32 () in
  let packet_missing, packet_deficit =
    stat_of (fun () ->
        let pop =
          Aggregate.create rng2 ~size:receivers ~k ~channel:(Aggregate.bernoulli ~p)
            ~time:0.0
        in
        for i = 1 to k + a do
          Aggregate.receive pop rng2 ~time:(float_of_int i)
        done;
        pop)
  in
  check_tiers_agree "post-volley missing" volley_missing packet_missing;
  check_tiers_agree "post-volley max deficit" volley_deficit packet_deficit

(* --- infrastructure ----------------------------------------------------- *)

let test_parallel_map () =
  let squares = Rmcast.Parallel.map 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "squares" (Array.init 100 (fun i -> i * i)) squares;
  Alcotest.(check (array int)) "empty" [||] (Rmcast.Parallel.map 0 (fun i -> i));
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore (Rmcast.Parallel.map 4 (fun i -> if i = 2 then raise Exit else i)))

let test_log_factorial_memo () =
  (* Grown once, then reused: repeated large-argument calls must not
     re-derive the table, and the memo must agree with log_gamma. *)
  ignore (Rmcast.Special.log_factorial 100_000 : float);
  let extensions = Rmcast.Special.log_factorial_extensions () in
  for n = 0 to 1000 do
    ignore (Rmcast.Special.log_factorial (n * 100) : float)
  done;
  Alcotest.(check int) "no re-extension" extensions
    (Rmcast.Special.log_factorial_extensions ());
  (* Repeated cdf calls reuse the grown memo too. *)
  ignore (Rmcast.Dist.Negative_binomial.cdf_array ~k:7 ~a:0 ~p 4096 : float array);
  let extensions = Rmcast.Special.log_factorial_extensions () in
  for _ = 1 to 5 do
    ignore (Rmcast.Dist.Negative_binomial.cdf_array ~k:7 ~a:0 ~p 4096 : float array)
  done;
  Alcotest.(check int) "no re-extension across cdf_array calls" extensions
    (Rmcast.Special.log_factorial_extensions ());
  List.iter
    (fun n ->
      let memo = Rmcast.Special.log_factorial n in
      let gamma = Rmcast.Special.log_gamma (float_of_int n +. 1.0) in
      Alcotest.(check bool)
        (Printf.sprintf "log %d! memo %.6f vs gamma %.6f" n memo gamma)
        true
        (Float.abs (memo -. gamma) <= 1e-9 *. Float.max 1.0 (Float.abs gamma)))
    [ 0; 1; 2; 10; 1000; 99_999 ]

(* The aggregate TG tier admits the integrated schemes over either MDS
   codec — the same count-vector dynamics, so identical estimates from the
   same seed — and rejects a rateless one, as Np_aggregate.check_config
   does. *)
let test_tg_aggregate_codecs () =
  let estimate codec =
    Tg_aggregate.estimate (Rng.create ~seed:31 ()) ~receivers:5000
      ~channel:(Aggregate.bernoulli ~p:0.05) ~k:7
      ~scheme:(Runner.Integrated_nak { a = 1; codec }) ~reps:50 ()
  in
  let fields e =
    Printf.sprintf "%h %h %h" (Runner.mean_m e)
      (Stats.Accumulator.mean e.Runner.rounds)
      (Stats.Accumulator.mean e.Runner.unnecessary_per_receiver)
  in
  Alcotest.(check string) "cauchy = rse" (fields (estimate `Rse)) (fields (estimate `Cauchy));
  List.iter
    (fun codec ->
      Alcotest.(check bool)
        (Rmcast.Profile.codec_to_string codec ^ " rejected")
        true
        (match estimate codec with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ `Rlnc; `Lt ]

(* --- sim-tier golden pins ------------------------------------------------ *)

(* Both sim tiers pinned scenario by scenario: the recorder capture's digest
   plus every integer field of the report (and the duration, bit for bit).
   The expected strings were produced by the drivers as they stood before
   the aggregate remainder moved onto Np.Mux's population hooks; any drift
   in engine scheduling order, RNG consumption, wire round-trips or report
   assembly changes a digest or a count here.  The equivalence test above
   only covers population = cohort; these cover the remainder side. *)

let capture_digest recorder =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun (e : Recorder.entry) ->
      Buffer.add_string buffer e.Recorder.actor;
      Buffer.add_string buffer
        (match e.Recorder.kind with Recorder.Event -> " E " | Recorder.Effect -> " F ");
      Buffer.add_string buffer e.Recorder.body;
      Buffer.add_char buffer '\n')
    (Recorder.entries recorder);
  Digest.to_hex (Digest.string (Buffer.contents buffer))

let agg_fields (r : Np_aggregate.report) =
  Printf.sprintf
    "pop=%d cohort=%d tgs=%d data=%d parity=%d polls=%d cnaks=%d csupp=%d anaks=%d \
     asupp=%d enc=%d dec=%d cunn=%d aunn=%d cej=%d aej=%d acomplete=%d dur=%h intact=%b"
    r.population r.cohort r.transmission_groups r.data_tx r.parity_tx r.polls
    r.cohort_naks_sent r.cohort_naks_suppressed r.agg_naks_sent r.agg_naks_suppressed
    r.parities_encoded r.packets_decoded r.cohort_unnecessary r.agg_unnecessary
    (List.length r.cohort_ejected) r.agg_ejected r.agg_complete r.duration
    r.delivered_intact

let np_fields (r : Np.report) =
  Printf.sprintf
    "rx=%d tgs=%d data=%d parity=%d polls=%d naks=%d supp=%d enc=%d dec=%d unn=%d ej=%d \
     dur=%h intact=%b"
    r.Np.receivers r.Np.transmission_groups r.Np.data_tx r.Np.parity_tx r.Np.polls
    r.Np.naks_sent r.Np.naks_suppressed r.Np.parities_encoded r.Np.packets_decoded
    r.Np.unnecessary_receptions (List.length r.Np.ejected) r.Np.duration
    r.Np.delivered_intact

let golden_config = { Np.default_config with payload_size = 64 }

(* One aggregate-tier mux; each [(start, population)] adds a flow with its
   own recorder and inputs derived from [seed]. *)
let golden_agg ?(config = golden_config) ?(cohort = 32) ?(network = `Bernoulli 0.01)
    ~channel ~packets ~seed flows =
  let mux = Np_aggregate.Mux.create (Rmcast.Engine.create ()) in
  let added =
    List.mapi
      (fun i (start, population) ->
        let rng = Rng.create ~seed:(seed + i) () in
        let data = payloads rng ~count:packets ~size:config.Np.payload_size in
        let receivers = min cohort population in
        let network =
          match network with
          | `Bernoulli p -> Network.independent (Rng.split rng) ~receivers ~p
          | `Bursty (p, mean_burst, send_rate) ->
            Network.temporal (Rng.split rng) ~receivers ~make:(fun r ->
                Rmcast.Loss.markov2 r ~p ~mean_burst ~send_rate)
        in
        let recorder = Recorder.create () in
        let flow =
          Np_aggregate.Mux.add_flow mux ~config ~start ~recorder ~cohort ~channel
            ~population ~network ~rng:(Rng.split rng) ~data ()
        in
        (flow, recorder))
      flows
  in
  Np_aggregate.Mux.run mux;
  String.concat " | "
    (List.map
       (fun (flow, recorder) ->
         capture_digest recorder ^ " " ^ agg_fields (Np_aggregate.Mux.report flow))
       added)

let golden_np ~controller ?(network = `Bernoulli 0.05) ?(churn = []) ~seed () =
  let config =
    { golden_config with k = 8; h = 24; slot = 0.02; Np.controller }
  in
  let rng = Rng.create ~seed () in
  let data = payloads rng ~count:48 ~size:config.Np.payload_size in
  let receivers = 6 in
  let network =
    match network with
    | `Bernoulli p -> Network.independent (Rng.split rng) ~receivers ~p
    | `Bursty (p, mean_burst, send_rate) ->
      Network.temporal (Rng.split rng) ~receivers ~make:(fun r ->
          Rmcast.Loss.markov2 r ~p ~mean_burst ~send_rate)
  in
  let recorder = Recorder.create () in
  let mux = Np.Mux.create (Rmcast.Engine.create ()) in
  let flow =
    Np.Mux.add_flow mux ~config ~recorder ~churn ~network ~rng:(Rng.split rng) ~data ()
  in
  Np.Mux.run mux;
  Printf.sprintf "%s %s retunes=%d" (capture_digest recorder)
    (np_fields (Np.Mux.report flow))
    (Np.Mux.retunes flow)

let golden_scenarios =
  [
    ( "aggregate: Bernoulli, cohort 32, population 20k",
      (fun () ->
        golden_agg ~channel:(Aggregate.bernoulli ~p:0.01) ~packets:60 ~seed:101
          [ (0.0, 20_000) ]),
      "417f4d898cdff95a9f3ef03feedeb4a4 pop=20000 cohort=32 tgs=3 data=60 parity=12 polls=6 cnaks=0 csupp=15 anaks=3 asupp=11037 enc=12 dec=16 cunn=363 aunn=225118 cej=0 aej=0 acomplete=19968 dur=0x1.d00d6b30ed1a8p+0 intact=true" );
    ( "aggregate: bursty k=100 h=155, population 10^6",
      (fun () ->
        let config =
          { golden_config with k = 100; h = 155; spacing = 0.04; slot = 0.2 }
        in
        golden_agg ~config ~cohort:64
          ~network:(`Bursty (0.01, 2.0, 25.0))
          ~channel:(Aggregate.bursty ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0)
          ~packets:200 ~seed:102
          [ (0.0, 1_000_000) ]),
      "119e549a79724fd7b040bd75dafcfddf pop=1000000 cohort=64 tgs=2 data=200 parity=45 polls=5 cnaks=0 csupp=54 anaks=4 asupp=799782 enc=45 dec=127 cunn=2729 aunn=42547171 cej=0 aej=0 acomplete=999936 dur=0x1.8ed4d8e39ea2dp+4 intact=true" );
    ( "aggregate: ejection with h=2",
      (fun () ->
        let config = { golden_config with h = 2 } in
        golden_agg ~config ~cohort:16 ~network:(`Bernoulli 0.05)
          ~channel:(Aggregate.bernoulli ~p:0.05) ~packets:40 ~seed:103
          [ (0.0, 5_000) ]),
      "6a136287d7d7f4de5bd552776e51681b pop=5000 cohort=16 tgs=2 data=40 parity=4 polls=4 cnaks=0 csupp=23 anaks=7 asupp=7274 enc=4 dec=20 cunn=34 aunn=10237 cej=4 aej=917 acomplete=4984 dur=0x1.bacc5bd6eba7bp+0 intact=false" );
    ( "aggregate: proactive a=2",
      (fun () ->
        let config = { golden_config with proactive = 2 } in
        golden_agg ~config ~network:(`Bernoulli 0.02)
          ~channel:(Aggregate.bernoulli ~p:0.02) ~packets:60 ~seed:104
          [ (0.0, 20_000) ]),
      "e8d3172ed79f17fd3725f00897425b80 pop=20000 cohort=32 tgs=3 data=60 parity=14 polls=7 cnaks=0 csupp=0 anaks=10 asupp=551 enc=14 dec=34 cunn=403 aunn=250013 cej=0 aej=0 acomplete=19968 dur=0x1.27e188db4a519p+1 intact=true" );
    (* The second flow's remainder is small, so cohort NAKs win the slot
       race and the remainder's overhearing path runs too. *)
    ( "aggregate: two staggered flows on one mux",
      (fun () ->
        golden_agg ~channel:(Aggregate.bernoulli ~p:0.01) ~packets:40 ~seed:105
          [ (0.0, 10_000); (0.015, 40) ]),
      "908df68e746beef1510d04b22ee866c5 pop=10000 cohort=32 tgs=2 data=40 parity=8 polls=6 cnaks=0 csupp=5 anaks=9 asupp=3639 enc=8 dec=5 cunn=248 aunn=74918 cej=0 aej=0 acomplete=9968 dur=0x1.0eaef4ec28eep+1 intact=true | fae622a5d99f55fb91e2f4768c5d44ae pop=40 cohort=32 tgs=2 data=40 parity=3 polls=4 cnaks=6 csupp=10 anaks=1 asupp=4 enc=3 dec=17 cunn=79 aunn=19 cej=0 aej=0 acomplete=8 dur=0x1.09e992d43566cp+1 intact=true" );
    ( "exact: churn (leave, late join, rejoin) under Ewma",
      (fun () ->
        golden_np ~controller:`Ewma ~seed:106
          ~churn:
            [
              { Np.Mux.receiver = 1; at = 0.01; action = `Leave };
              { Np.Mux.receiver = 2; at = 0.03; action = `Join };
              { Np.Mux.receiver = 3; at = 0.005; action = `Leave };
              { Np.Mux.receiver = 3; at = 0.06; action = `Join };
            ]
          ()),
      "3defcce5792cf16b1c4733be6b502292 rx=6 tgs=6 data=48 parity=51 polls=14 naks=11 supp=5 enc=51 dec=78 unn=159 ej=0 dur=0x1.690e642271b5ap-2 intact=true retunes=1" );
    ( "exact: Gilbert_aware",
      (fun () ->
        golden_np ~controller:`Gilbert_aware ~network:(`Bursty (0.05, 3.0, 1000.0))
          ~seed:107 ()),
      "071f2144f0c1379a464fadbdd707a8ab rx=6 tgs=6 data=48 parity=7 polls=9 naks=4 supp=1 enc=7 dec=11 unn=28 ej=0 dur=0x1.0e77f848297d8p-2 intact=true retunes=1" );
    ( "exact: Static",
      (fun () -> golden_np ~controller:`Static ~seed:108 ()),
      "0539a6ee1b131c393487d97cd7e1b78d rx=6 tgs=6 data=48 parity=8 polls=11 naks=12 supp=0 enc=8 dec=16 unn=28 ej=0 dur=0x1.076235c07cc75p-2 intact=true retunes=0" );
  ]

let test_golden_sim_tiers () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    golden_scenarios

let suite =
  [
    Alcotest.test_case "cohort = population is event-identical to Np" `Quick
      test_cohort_event_identical;
    Alcotest.test_case "aggregate remainder completes the transfer" `Quick
      test_remainder_completes;
    Alcotest.test_case "E[L] sampler matches analysis (eq. 5)" `Quick
      test_extra_parities_expectation;
    Alcotest.test_case "open-loop E[M] matches eq. 6 (3.5 sigma)" `Quick
      test_open_loop_matches_eq6;
    Alcotest.test_case "NAK-rounds E[M] straddles eq. 6" `Quick
      test_nak_rounds_straddle_eq6;
    Alcotest.test_case "tiers agree, Bernoulli (3.5 sigma)" `Quick
      test_tiers_agree_bernoulli;
    Alcotest.test_case "tiers agree, bursty Markov (3.5 sigma)" `Quick
      test_tiers_agree_bursty;
    Alcotest.test_case "volley split = per-packet thinning" `Quick
      test_volley_matches_thinning;
    Alcotest.test_case "Parallel.map" `Quick test_parallel_map;
    Alcotest.test_case "log-factorial memo grows once" `Quick test_log_factorial_memo;
    Alcotest.test_case "rejected flow schedules nothing" `Quick
      test_rejected_flow_schedules_nothing;
    Alcotest.test_case "sim tiers match their golden captures" `Quick test_golden_sim_tiers;
    Alcotest.test_case "aggregate TG tier: MDS codecs only" `Quick test_tg_aggregate_codecs;
    Alcotest.test_case "R = 10^4 E[M] is deterministic and agrees with eq. 6" `Quick
      test_scale_point_eq6;
  ]
