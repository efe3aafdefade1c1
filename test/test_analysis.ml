module A = Rmcast.Arq
module L = Rmcast.Layered
module I = Rmcast.Integrated
module Rounds = Rmcast.Rounds
module Endhost = Rmcast.Endhost
module Receivers = Rmcast.Receivers
module Dist = Rmcast.Dist

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

let pop ?(p = 0.01) count = Receivers.homogeneous ~p ~count

(* --- populations --- *)

let test_population_validation () =
  Alcotest.check_raises "p=1" (Invalid_argument "Receivers: loss probability outside [0,1)")
    (fun () -> ignore (Receivers.homogeneous ~p:1.0 ~count:5));
  Alcotest.check_raises "empty" (Invalid_argument "Receivers: empty population") (fun () ->
      ignore (Receivers.classes [ (0.1, 0) ]))

let test_two_class_split () =
  let population = Receivers.two_class ~p_low:0.01 ~p_high:0.25 ~high_fraction:0.05 ~count:1000 in
  Alcotest.(check int) "size" 1000 (Receivers.size population);
  Alcotest.(check (list (pair (float 1e-9) int))) "classes" [ (0.01, 950); (0.25, 50) ]
    (Receivers.to_classes population);
  close "max p" 0.25 (Receivers.max_p population)

let test_two_class_all_high () =
  let population = Receivers.two_class ~p_low:0.01 ~p_high:0.25 ~high_fraction:1.0 ~count:10 in
  Alcotest.(check (list (pair (float 1e-9) int))) "one class" [ (0.25, 10) ]
    (Receivers.to_classes population)

let test_product_forms () =
  (* Two classes at the same p multiply like one class of 5 receivers:
     the product is c^5, and the survival sum of a CDF that reaches 1 at
     m = 3 is 3 (1 - c^5). *)
  let population = Receivers.classes [ (0.1, 3); (0.1, 2) ] in
  close "product" (0.7 ** 5.0) (Receivers.group_cdf population (fun _ _ -> 0.7) 0);
  close "survival sum" (3.0 *. (1.0 -. (0.7 ** 5.0)))
    (Receivers.expected_max population (fun _ m -> if m < 3 then 0.7 else 1.0))

(* --- the group kernel --- *)

(* [prod_r cdf p_r m], one factor per receiver. *)
let explicit_product population cdf m =
  List.fold_left
    (fun acc (p, count) ->
      let c = cdf p m in
      let acc = ref acc in
      for _ = 1 to count do
        acc := !acc *. c
      done;
      !acc)
    1.0 (Receivers.to_classes population)

(* [sum_{m>=0} (1 - explicit_product m)], summed until the terms vanish. *)
let explicit_expected_max population cdf =
  let rec go m acc =
    let term = 1.0 -. explicit_product population cdf m in
    if term <= 1e-17 then acc +. term else go (m + 1) (acc +. term)
  in
  go 0 0.0

(* A per-class table of [cdf p] grown on demand from empty, as the
   integrated model stages P(Lr <= m): read at m in a random order, its
   values must not depend on how it was grown. *)
let staged cdf p =
  let table = ref [||] in
  fun m ->
    if m >= Array.length !table then
      table := Array.init (max (2 * Array.length !table) (m + 1)) (cdf p);
    !table.(m)

(* [Receivers.group_cdf] and [expected_max] against the product over every
   receiver, for the three per-receiver laws the analysis hands them — the
   geometric of ARQ, the rounds law of eq. (17) and the negative binomial
   of integrated FEC — through the kernel directly (with staged tables)
   and through each model's own group functions. *)
let qcheck_group_kernel =
  let gen =
    QCheck.Gen.(
      let p = frequency [ (1, return 0.0); (9, float_bound_inclusive 0.5) ] in
      quad
        (list_size (int_range 1 3) (pair p (int_range 1 50)))
        (int_range 1 20) (int_range 0 3)
        (shuffle_l (List.init 41 Fun.id)))
  in
  let print (classes, k, a, _) =
    Printf.sprintf "classes [%s], k = %d, a = %d"
      (String.concat "; " (List.map (fun (p, n) -> Printf.sprintf "%h x %d" p n) classes))
      k a
  in
  QCheck.Test.make ~count:200 ~name:"group kernel = product over every receiver"
    (QCheck.make ~print gen) (fun (classes, k, a, ms) ->
      let population = Receivers.classes classes in
      let families =
        [
          ( (fun p -> A.Per_receiver.cdf ~p),
            A.cdf ~population,
            A.expected_transmissions ~population );
          ( (fun p -> Rounds.per_receiver_cdf ~p ~k),
            Rounds.group_cdf ~population ~k,
            Rounds.expected_rounds ~population ~k );
          ( (fun p m -> I.Per_receiver.cdf ~k ~a ~p m),
            I.group_extra_cdf ~k ~a ~population,
            I.expected_extra ~k ~a ~population );
        ]
      in
      let agree x y =
        let d = Float.abs (x -. y) in
        d <= 1e-12 *. Float.max (Float.abs x) (Float.abs y) || d < Float.min_float
      in
      (* Each survival term 1 - prod carries a rounding error of about one
         ulp of 1 whichever way the product is formed, so an E[L] of 5e-8
         (p ~ 4e-4) agrees to 1e-16 absolute, not to 1e-9 relative:
         compare within 1e-9, relative once the expectation passes 1. *)
      let within_1e9 x expected = Float.abs (x -. expected) <= 1e-9 *. Float.max 1.0 expected in
      List.for_all
        (fun (cdf, model_group, model_expected) ->
          let kernel = Receivers.group_cdf population (staged cdf) in
          let expected = explicit_expected_max population cdf in
          List.for_all
            (fun m ->
              let product = explicit_product population cdf m in
              agree product (kernel m) && agree product (model_group m))
            ms
          && within_1e9 (Receivers.expected_max population cdf) expected
          && within_1e9 model_expected expected)
        families)

(* --- no-FEC (ARQ) --- *)

let test_arq_single_receiver () =
  (* R = 1: E[M] = 1/(1-p), the geometric mean. *)
  List.iter
    (fun p ->
      close
        (Printf.sprintf "R=1 p=%g" p)
        (1.0 /. (1.0 -. p))
        (A.expected_transmissions_homogeneous ~p ~receivers:1))
    [ 0.0; 0.01; 0.25; 0.9 ]

let test_arq_lossless () =
  close "p=0" 1.0 (A.expected_transmissions_homogeneous ~p:0.0 ~receivers:1_000_000)

let test_arq_monotone_in_receivers () =
  let values =
    List.map (fun r -> A.expected_transmissions_homogeneous ~p:0.01 ~receivers:r)
      [ 1; 10; 100; 1000; 10_000 ]
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "monotone" true (a < b);
      check rest
    | _ -> ()
  in
  check values

let test_arq_against_direct_sum () =
  (* Tiny case computable by brute force: R = 2, p = 0.5.
     E[M] = sum_{i>=0} 1 - (1 - 0.5^i)^2. *)
  let direct = ref 0.0 in
  for i = 0 to 200 do
    direct := !direct +. (1.0 -. ((1.0 -. (0.5 ** float_of_int i)) ** 2.0))
  done;
  close "R=2 p=0.5" !direct (A.expected_transmissions_homogeneous ~p:0.5 ~receivers:2)

let test_arq_paper_scale () =
  (* Figure 5's no-FEC curve: ~3.6 transmissions at R = 10^6, p = 0.01. *)
  let m = A.expected_transmissions_homogeneous ~p:0.01 ~receivers:1_000_000 in
  Alcotest.(check bool) "3.5 < M < 3.8" true (m > 3.5 && m < 3.8)

let test_arq_per_receiver () =
  let p = 0.25 in
  close "cdf" (1.0 -. (p ** 3.0)) (A.Per_receiver.cdf ~p 3);
  close "mean" (4.0 /. 3.0) (A.Per_receiver.mean ~p);
  close "P(>2)" (p *. p) (A.Per_receiver.prob_gt ~p 2);
  (* E[Mr | Mr > 2] = 2 + E[geometric tail] = 2 + 1/(1-p) by memorylessness *)
  close "conditional mean" (2.0 +. (1.0 /. (1.0 -. p))) (A.Per_receiver.mean_given_gt2 ~p)

(* --- layered FEC --- *)

let test_layered_q_formula () =
  (* Against eq. (2) computed literally. *)
  List.iter
    (fun (k, h, p) ->
      let n = k + h in
      let direct =
        let sum = ref 0.0 in
        for j = 0 to n - k - 1 do
          sum := !sum +. Dist.Binomial.pmf ~n:(n - 1) ~p j
        done;
        p *. (1.0 -. !sum)
      in
      close (Printf.sprintf "q(%d,%d,%g)" k n p) direct (L.rm_loss_probability ~k ~h ~p))
    [ (7, 1, 0.01); (7, 7, 0.01); (20, 2, 0.05); (100, 7, 0.25); (1, 1, 0.5) ]

let test_layered_q_no_parity () =
  close "h=0 degenerates" 0.05 (L.rm_loss_probability ~k:7 ~h:0 ~p:0.05)

let test_layered_q_below_p () =
  List.iter
    (fun (k, h) ->
      Alcotest.(check bool)
        (Printf.sprintf "q < p for (%d,%d)" k h)
        true
        (L.rm_loss_probability ~k ~h ~p:0.01 < 0.01))
    [ (7, 1); (20, 2); (100, 7) ]

let test_layered_r1_equals_nk_over_k_times_geometric () =
  (* R = 1: E[M] = (n/k) / (1 - q). *)
  let k = 7 and h = 2 and p = 0.05 in
  let q = L.rm_loss_probability ~k ~h ~p in
  close "R=1 closed form"
    (9.0 /. 7.0 /. (1.0 -. q))
    (L.expected_transmissions_homogeneous ~k ~h ~p ~receivers:1)

let test_layered_overhead_floor () =
  (* Lossless: exactly n/k. *)
  close "p=0 floor" (10.0 /. 7.0)
    (L.expected_transmissions_homogeneous ~k:7 ~h:3 ~p:0.0 ~receivers:1000)

let test_layered_paper_figure4 () =
  (* Figure 4: (7,14) is flat at 2.0; (100,107) beats it for R <= 2*10^5. *)
  let lay7 = L.expected_transmissions_homogeneous ~k:7 ~h:7 ~p:0.01 ~receivers:100_000 in
  let lay100 = L.expected_transmissions_homogeneous ~k:100 ~h:7 ~p:0.01 ~receivers:100_000 in
  close ~tol:1e-3 "(7,14) flat at 2" 2.0 lay7;
  Alcotest.(check bool) "(100,107) better at 1e5" true (lay100 < lay7)

let test_layered_hetero_reduces_to_homog () =
  let split = Receivers.classes [ (0.01, 400); (0.01, 600) ] in
  close "same p classes"
    (L.expected_transmissions_homogeneous ~k:7 ~h:2 ~p:0.01 ~receivers:1000)
    (L.expected_transmissions ~k:7 ~h:2 ~population:split)

(* --- integrated FEC --- *)

let test_integrated_r1 () =
  (* R = 1, a = 0: E[L] = E[Lr] = k*p/(1-p), E[M] = (k + E[L])/k = 1/(1-p). *)
  List.iter
    (fun (k, p) ->
      close
        (Printf.sprintf "R=1 k=%d p=%g" k p)
        (1.0 /. (1.0 -. p))
        (I.expected_transmissions_unbounded ~k ~population:(pop ~p 1) ()))
    [ (7, 0.01); (20, 0.25); (100, 0.1) ]

let test_integrated_beats_arq_and_layered () =
  let population = pop 10_000 in
  let integrated = I.expected_transmissions_unbounded ~k:7 ~population () in
  let layered = L.expected_transmissions ~k:7 ~h:7 ~population in
  let arq = A.expected_transmissions ~population in
  Alcotest.(check bool) "integrated < layered < arq ordering" true
    (integrated < layered && integrated < arq)

let test_integrated_k_improves () =
  (* Figure 7: larger TGs amortise recovery. *)
  let population = pop 1_000_000 in
  let m7 = I.expected_transmissions_unbounded ~k:7 ~population () in
  let m20 = I.expected_transmissions_unbounded ~k:20 ~population () in
  let m100 = I.expected_transmissions_unbounded ~k:100 ~population () in
  Alcotest.(check bool) "k ordering" true (m100 < m20 && m20 < m7);
  Alcotest.(check bool) "k=100 near 1" true (m100 < 1.15)

let test_integrated_finite_h_converges_to_bound () =
  let population = pop 1000 in
  let bound = I.expected_transmissions_unbounded ~k:7 ~population () in
  let at h = I.expected_transmissions ~k:7 ~h ~population () in
  Alcotest.(check bool) "h=1 above h=3" true (at 1 > at 3);
  close ~tol:1e-6 "h=20 = bound" bound (at 20);
  (* Figure 6: 3 parities reach the bound for moderate R *)
  close ~tol:5e-3 "h=3 close to bound" bound (at 3)

let test_integrated_h0_equals_arq () =
  (* No parities at all: every block failure re-sends the TG; with k..?
     h=0 means q = p and blocks of k: E[M] = E[B]. *)
  let population = pop 500 in
  close "h=0 = pure ARQ blocks" (A.expected_transmissions ~population)
    (I.expected_transmissions ~k:7 ~h:0 ~population ())

let test_integrated_proactive_reduces_extra () =
  let population = pop 10_000 in
  let e0 = I.expected_extra ~k:7 ~a:0 ~population in
  let e2 = I.expected_extra ~k:7 ~a:2 ~population in
  Alcotest.(check bool) "proactive parities reduce requested extras" true (e2 < e0)

let test_integrated_group_cdf_zero () =
  (* P(L <= 0) with a = 0 for R receivers = (1-p)^(kR): nobody lost anything. *)
  let k = 5 and p = 0.1 and r = 10 in
  close "P(L=0) product"
    (((1.0 -. p) ** float_of_int k) ** float_of_int r)
    (I.group_extra_cdf ~k ~a:0 ~population:(pop ~p r) 0)

let test_integrated_conditional_extra () =
  let population = pop 100 in
  let unconditional = I.expected_extra ~k:7 ~a:0 ~population in
  let conditional = I.expected_extra_conditional ~k:7 ~a:0 ~population ~cap:50 in
  Alcotest.(check bool) "conditioning lowers mean" true (conditional <= unconditional +. 1e-12);
  close "cap 0" 0.0 (I.expected_extra_conditional ~k:7 ~a:0 ~population ~cap:0)

let test_integrated_per_receiver_mean () =
  (* E[Lr] with a=0 is k*p/(1-p) (expected extra transmissions for k
     successes). *)
  let k = 20 and p = 0.1 in
  close ~tol:1e-8 "E[Lr]"
    (float_of_int k *. p /. (1.0 -. p))
    (I.Per_receiver.mean ~k ~a:0 ~p)

let test_integrated_hetero_dominated_by_high_loss () =
  (* Figure 10: 1% of high-loss receivers roughly doubles E[M] at R=1e6. *)
  let base = Receivers.two_class ~p_low:0.01 ~p_high:0.25 ~high_fraction:0.0 ~count:1_000_000 in
  let polluted = Receivers.two_class ~p_low:0.01 ~p_high:0.25 ~high_fraction:0.01 ~count:1_000_000 in
  let m_base = I.expected_transmissions_unbounded ~k:7 ~population:base () in
  let m_polluted = I.expected_transmissions_unbounded ~k:7 ~population:polluted () in
  Alcotest.(check bool) "roughly doubles" true
    (m_polluted > 1.6 *. m_base && m_polluted < 2.4 *. m_base)

(* --- rounds --- *)

let test_rounds_cdf_formula () =
  let p = 0.1 and k = 20 in
  close "m=1" ((1.0 -. p) ** 20.0) (Rounds.per_receiver_cdf ~p ~k 1);
  close "m=2" ((1.0 -. (p *. p)) ** 20.0) (Rounds.per_receiver_cdf ~p ~k 2);
  close "m=0" 0.0 (Rounds.per_receiver_cdf ~p ~k 0)

let test_rounds_p0 () =
  close "lossless single round" 1.0 (Rounds.expected_rounds_per_receiver ~p:0.0 ~k:20);
  close "group lossless" 1.0 (Rounds.expected_rounds ~population:(pop ~p:0.0 100) ~k:20)

let test_rounds_group_exceeds_individual () =
  let p = 0.05 and k = 20 in
  let single = Rounds.expected_rounds_per_receiver ~p ~k in
  let group = Rounds.expected_rounds ~population:(pop ~p 10_000) ~k in
  Alcotest.(check bool) "max over group larger" true (group > single)

let test_rounds_conditional () =
  let p = 0.2 and k = 10 in
  let conditional = Rounds.mean_rounds_given_gt2 ~p ~k in
  Alcotest.(check bool) "at least 3" true (conditional >= 3.0)

(* --- end-host model --- *)

let test_endhost_n2_r1 () =
  (* R = 1, p = 0.01: E[M] = 1/0.99; manual evaluation of eq. (10). *)
  let c = Endhost.paper_constants in
  let m = 1.0 /. 0.99 in
  let expected_sender = 1.0 /. ((m *. c.Endhost.packet_send) +. ((m -. 1.0) *. c.Endhost.nak_sender)) in
  let rates = Endhost.n2 ~p:0.01 ~receivers:1 () in
  close ~tol:1e-9 "sender rate" expected_sender rates.Endhost.sender

let test_endhost_throughput_is_min () =
  let rates = Endhost.np ~p:0.01 ~k:20 ~receivers:1000 () in
  close "min" (Float.min rates.Endhost.sender rates.Endhost.receiver) rates.Endhost.throughput

let test_endhost_sender_is_np_bottleneck () =
  (* §5: for NP the sender becomes the bottleneck as R grows. *)
  let rates = Endhost.np ~p:0.01 ~k:20 ~receivers:100_000 () in
  Alcotest.(check bool) "sender slower" true (rates.Endhost.sender < rates.Endhost.receiver)

let test_endhost_pre_encoding_helps () =
  let plain = Endhost.np ~p:0.01 ~k:20 ~receivers:10_000 () in
  let pre = Endhost.np ~pre_encoded:true ~p:0.01 ~k:20 ~receivers:10_000 () in
  Alcotest.(check bool) "pre-encode faster" true
    (pre.Endhost.throughput > plain.Endhost.throughput);
  close "receiver unchanged" plain.Endhost.receiver pre.Endhost.receiver

let test_endhost_np_beats_n2_preencoded () =
  (* The paper's headline: up to ~3x with pre-encoding at R = 10^6. *)
  let n2 = Endhost.n2 ~p:0.01 ~receivers:1_000_000 () in
  let np = Endhost.np ~pre_encoded:true ~p:0.01 ~k:20 ~receivers:1_000_000 () in
  let gain = np.Endhost.throughput /. n2.Endhost.throughput in
  Alcotest.(check bool) (Printf.sprintf "gain %.2f in [2.5, 4]" gain) true
    (gain > 2.5 && gain < 4.0)

let test_endhost_nak_per_packet_variant () =
  (* §5: per-packet NAKs leave the sender rate unchanged, receiver rate
     dips only slightly. *)
  let per_round = Endhost.np ~p:0.01 ~k:20 ~receivers:1_000_000 () in
  let per_packet = Endhost.np ~nak_per_packet:true ~p:0.01 ~k:20 ~receivers:1_000_000 () in
  Alcotest.(check bool) "receiver slightly lower" true
    (per_packet.Endhost.receiver <= per_round.Endhost.receiver
    && per_packet.Endhost.receiver > 0.8 *. per_round.Endhost.receiver)

let test_endhost_lossless () =
  (* p = 0 and R = 1: sender rate = 1/Xp exactly, no NAKs, no coding. *)
  let rates = Endhost.np ~p:0.0 ~k:20 ~receivers:1 () in
  close "pure packet cost" (1.0 /. Endhost.paper_constants.Endhost.packet_send)
    rates.Endhost.sender

(* --- sweep helpers --- *)

let test_sweep_log_ints () =
  let grid = Rmcast.Sweep.log_spaced_ints ~from:1 ~upto:1000 ~per_decade:3 in
  Alcotest.(check bool) "starts at 1" true (List.hd grid = 1);
  Alcotest.(check bool) "ends at 1000" true (List.mem 1000 grid);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (strictly_increasing grid)

let test_sweep_powers_of_two () =
  Alcotest.(check (list int)) "powers" [ 1; 2; 4; 8 ] (Rmcast.Sweep.powers_of_two ~max_exponent:3)

let test_sweep_csv () =
  let csv =
    Rmcast.Sweep.to_csv
      [ { Rmcast.Sweep.label = "s"; points = [ (1.0, 2.0); (3.0, 4.0) ] } ]
  in
  Alcotest.(check string) "csv" "series,x,y\ns,1,2\ns,3,4\n" csv

let base_suite =
  [
    Alcotest.test_case "population validation" `Quick test_population_validation;
    Alcotest.test_case "two-class split" `Quick test_two_class_split;
    Alcotest.test_case "two-class all high" `Quick test_two_class_all_high;
    Alcotest.test_case "product forms" `Quick test_product_forms;
    Alcotest.test_case "ARQ R=1 geometric" `Quick test_arq_single_receiver;
    Alcotest.test_case "ARQ lossless" `Quick test_arq_lossless;
    Alcotest.test_case "ARQ monotone in R" `Quick test_arq_monotone_in_receivers;
    Alcotest.test_case "ARQ vs direct sum" `Quick test_arq_against_direct_sum;
    Alcotest.test_case "ARQ paper-scale value" `Quick test_arq_paper_scale;
    Alcotest.test_case "ARQ per-receiver stats" `Quick test_arq_per_receiver;
    Alcotest.test_case "layered q vs eq.(2)" `Quick test_layered_q_formula;
    Alcotest.test_case "layered q at h=0" `Quick test_layered_q_no_parity;
    Alcotest.test_case "layered q < p" `Quick test_layered_q_below_p;
    Alcotest.test_case "layered R=1 closed form" `Quick test_layered_r1_equals_nk_over_k_times_geometric;
    Alcotest.test_case "layered lossless floor" `Quick test_layered_overhead_floor;
    Alcotest.test_case "layered Figure 4 shapes" `Quick test_layered_paper_figure4;
    Alcotest.test_case "layered hetero = homog when equal" `Quick test_layered_hetero_reduces_to_homog;
    Alcotest.test_case "integrated R=1" `Quick test_integrated_r1;
    Alcotest.test_case "integrated beats others" `Quick test_integrated_beats_arq_and_layered;
    Alcotest.test_case "integrated large k (Fig 7)" `Quick test_integrated_k_improves;
    Alcotest.test_case "integrated finite h -> bound (Fig 6)" `Quick
      test_integrated_finite_h_converges_to_bound;
    Alcotest.test_case "integrated h=0 = ARQ" `Quick test_integrated_h0_equals_arq;
    Alcotest.test_case "integrated proactive parities" `Quick test_integrated_proactive_reduces_extra;
    Alcotest.test_case "integrated P(L=0)" `Quick test_integrated_group_cdf_zero;
    Alcotest.test_case "integrated conditional extras" `Quick test_integrated_conditional_extra;
    Alcotest.test_case "integrated E[Lr]" `Quick test_integrated_per_receiver_mean;
    Alcotest.test_case "integrated hetero doubling (Fig 10)" `Quick
      test_integrated_hetero_dominated_by_high_loss;
    Alcotest.test_case "rounds CDF formula" `Quick test_rounds_cdf_formula;
    Alcotest.test_case "rounds lossless" `Quick test_rounds_p0;
    Alcotest.test_case "rounds group > individual" `Quick test_rounds_group_exceeds_individual;
    Alcotest.test_case "rounds conditional >= 3" `Quick test_rounds_conditional;
    Alcotest.test_case "endhost N2 at R=1" `Quick test_endhost_n2_r1;
    Alcotest.test_case "endhost throughput = min" `Quick test_endhost_throughput_is_min;
    Alcotest.test_case "endhost NP sender bottleneck" `Quick test_endhost_sender_is_np_bottleneck;
    Alcotest.test_case "endhost pre-encoding helps" `Quick test_endhost_pre_encoding_helps;
    Alcotest.test_case "endhost NP ~3x N2 (Fig 18)" `Quick test_endhost_np_beats_n2_preencoded;
    Alcotest.test_case "endhost NAK-per-packet variant" `Quick test_endhost_nak_per_packet_variant;
    Alcotest.test_case "endhost lossless" `Quick test_endhost_lossless;
    Alcotest.test_case "sweep log ints" `Quick test_sweep_log_ints;
    Alcotest.test_case "sweep powers of two" `Quick test_sweep_powers_of_two;
    Alcotest.test_case "sweep csv" `Quick test_sweep_csv;
  ]

let test_endhost_capacity () =
  (* NP pre-encoded converges to ~680 pkts/s: a 500 pkts/s target is met
     at any scale, a 1000 pkts/s target only by trivial groups. *)
  let np_pre receivers = Endhost.np ~pre_encoded:true ~p:0.01 ~k:20 ~receivers () in
  Alcotest.(check bool) "loose target unbounded" true
    (Endhost.capacity ~rates_at:np_pre ~target:500.0 >= 100_000_000);
  let tight = Endhost.capacity ~rates_at:np_pre ~target:860.0 in
  Alcotest.(check bool) (Printf.sprintf "tight target small (%d)" tight) true
    (tight >= 1 && tight < 100);
  Alcotest.(check int) "impossible target" 0
    (Endhost.capacity ~rates_at:np_pre ~target:1e9);
  (* boundary exactness: throughput at the reported R meets the target,
     at R+1 it does not *)
  let n2 receivers = Endhost.n2 ~p:0.01 ~receivers () in
  let cap = Endhost.capacity ~rates_at:n2 ~target:500.0 in
  Alcotest.(check bool) "meets at cap" true ((n2 cap).Endhost.throughput >= 500.0);
  Alcotest.(check bool) "fails just past cap" true ((n2 (cap + 1)).Endhost.throughput < 500.0)

let capacity_suite = [ Alcotest.test_case "endhost capacity solver" `Quick test_endhost_capacity ]

let suite = base_suite @ capacity_suite @ [ QCheck_alcotest.to_alcotest qcheck_group_kernel ]
