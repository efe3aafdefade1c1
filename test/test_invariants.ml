(* Randomised invariants of the rounds-based TG machines: properties that
   must hold for every scheme under every configuration, independent of
   the loss realisation. *)

module Runner = Rmcast.Runner
module Network = Rmcast.Network
module Rng = Rmcast.Rng
module Tg_result = Rmcast.Tg_result

let scheme_gen =
  QCheck.Gen.(
    int_range 0 6 >>= fun which ->
    int_range 0 4 >>= fun h_or_a ->
    oneofl [ `Rse; `Cauchy; `Rlnc ] >>= fun codec ->
    return
      (match which with
      | 0 -> Runner.No_fec
      | 1 -> Runner.Layered { h = h_or_a }
      | 2 -> Runner.Integrated_open_loop { a = h_or_a }
      | 3 -> Runner.Integrated_nak { a = h_or_a; codec = `Rse }
      | 4 -> Runner.Carousel { h = h_or_a }
      | 5 -> Runner.Integrated_nak { a = h_or_a; codec }
      | _ -> Runner.Carousel { h = 0 }))

let config_gen =
  QCheck.Gen.(
    scheme_gen >>= fun scheme ->
    int_range 1 15 >>= fun k ->
    int_range 1 300 >>= fun receivers ->
    oneofl [ 0.0; 0.005; 0.02; 0.1; 0.3 ] >>= fun p ->
    int_range 0 1_000_000 >>= fun seed ->
    return (scheme, k, receivers, p, seed))

let run_one (scheme, k, receivers, p, seed) =
  let net = Network.independent (Rng.create ~seed ()) ~receivers ~p in
  Runner.run_tg net ~k ~scheme ~timing:Rmcast.Timing.instantaneous ~start:0.0 ()

let qcheck_tg_invariants =
  QCheck.Test.make ~count:150 ~name:"TG machines: universal invariants"
    (QCheck.make config_gen) (fun ((scheme, k, _, p, _) as config) ->
      let result = run_one config in
      let total = Tg_result.transmissions result in
      let floor_ok =
        (* at least one copy of each data packet, plus any mandatory parity
           overhead of the scheme *)
        match scheme with
        | Runner.Layered { h } -> total >= k + h
        | Runner.Integrated_open_loop { a } | Runner.Integrated_nak { a; _ } -> total >= k + a
        | Runner.No_fec | Runner.Carousel _ -> total >= k
      in
      let lossless_exact =
        (* with p = 0 the first volley always suffices *)
        p > 0.0
        ||
        match scheme with
        | Runner.No_fec | Runner.Carousel _ -> total = k && result.Tg_result.rounds = 1
        | Runner.Layered { h } -> total = k + h && result.Tg_result.rounds = 1
        | Runner.Integrated_open_loop { a } | Runner.Integrated_nak { a; _ } -> total = k + a
      in
      let feedback_ok =
        match scheme with
        | Runner.Carousel _ | Runner.Integrated_open_loop _ ->
          result.Tg_result.feedback_messages = 0
        | Runner.Integrated_nak _ ->
          result.Tg_result.feedback_messages = result.Tg_result.rounds - 1
        | Runner.No_fec | Runner.Layered _ -> result.Tg_result.feedback_messages >= 0
      in
      floor_ok && lossless_exact && feedback_ok
      && result.Tg_result.rounds >= 1
      && result.Tg_result.data_transmissions >= k
      && result.Tg_result.unnecessary_receptions >= 0
      && result.Tg_result.finish_time >= 0.0)

let qcheck_schemes_agree_on_lossless_data =
  QCheck.Test.make ~count:50 ~name:"lossless: every scheme sends each data packet once"
    (QCheck.make QCheck.Gen.(pair scheme_gen (int_range 1 20)))
    (fun (scheme, k) ->
      let net = Network.independent (Rng.create ~seed:99 ()) ~receivers:10 ~p:0.0 in
      let result =
        Runner.run_tg net ~k ~scheme ~timing:Rmcast.Timing.instantaneous ~start:0.0 ()
      in
      result.Tg_result.data_transmissions = k)

let qcheck_m_monotone_in_loss =
  (* Averaged over enough repetitions, more loss never means fewer
     transmissions. *)
  QCheck.Test.make ~count:12 ~name:"E[M] monotone in p (per scheme)"
    (QCheck.make scheme_gen) (fun scheme ->
      let m p seed =
        Runner.mean_m
          (Runner.estimate
             (Network.independent (Rng.create ~seed ()) ~receivers:200 ~p)
             ~k:7 ~scheme ~reps:150 ())
      in
      m 0.002 1 <= m 0.08 2 +. 0.02)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_tg_invariants;
    QCheck_alcotest.to_alcotest qcheck_schemes_agree_on_lossless_data;
    QCheck_alcotest.to_alcotest qcheck_m_monotone_in_loss;
  ]
