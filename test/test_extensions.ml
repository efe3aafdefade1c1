(* Tests for the beyond-the-paper extensions: the N1 end-host model, the
   FEC carousel and the hierarchy model. *)

module Network = Rmcast.Network
module Rng = Rmcast.Rng
module Runner = Rmcast.Runner

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

(* --- N1 end-host model --- *)

let test_endhost_n1_implosion () =
  let at r = (Rmcast.Endhost_n1.n1 ~p:0.01 ~receivers:r ()).Rmcast.Endhost.sender in
  Alcotest.(check bool) "sender decays ~1/R" true (at 1000 < at 10 /. 50.0);
  (* The receiver only pays per received copy: its rate falls with E[M]
     (a factor ~3 over five decades), not with R like the sender. *)
  let rx r = (Rmcast.Endhost_n1.n1 ~p:0.01 ~receivers:r ()).Rmcast.Endhost.receiver in
  Alcotest.(check bool) "receiver nearly flat" true (rx 100_000 > rx 10 /. 4.0);
  Alcotest.(check bool) "sender is the implosion side" true
    (at 100_000 /. at 10 < 0.01 *. (rx 100_000 /. rx 10))

let test_endhost_n1_vs_n2 () =
  (* At scale, N2's suppressed NAKs beat N1's per-receiver ACKs by orders
     of magnitude on the sender. *)
  let n1 = (Rmcast.Endhost_n1.n1 ~p:0.01 ~receivers:100_000 ()).Rmcast.Endhost.throughput in
  let n2 = (Rmcast.Endhost.n2 ~p:0.01 ~receivers:100_000 ()).Rmcast.Endhost.throughput in
  Alcotest.(check bool) "N2 >> N1" true (n2 > 100.0 *. n1)

let test_endhost_n1_wall () =
  let wall = Rmcast.Endhost_n1.max_receivers_for_throughput ~p:0.01 ~target:100.0 () in
  Alcotest.(check bool) (Printf.sprintf "wall at %d" wall) true (wall > 1 && wall < 100);
  (* a 1000x looser target pushes the wall out by roughly 1000x *)
  let loose = Rmcast.Endhost_n1.max_receivers_for_throughput ~p:0.01 ~target:0.1 () in
  Alcotest.(check bool)
    (Printf.sprintf "loose wall %d >> %d" loose wall)
    true
    (loose > 100 * wall)

(* --- FEC carousel --- *)

let test_carousel_lossless () =
  let net = Network.independent (Rng.create ~seed:6 ()) ~receivers:50 ~p:0.0 in
  let result =
    Rmcast.Tg_carousel.run net ~k:7 ~h:3 ~timing:Rmcast.Timing.instantaneous ~start:0.0
  in
  (* Everyone completes on the 7th packet of cycle 1: no parities sent. *)
  Alcotest.(check int) "data only" 7 result.Rmcast.Tg_result.data_transmissions;
  Alcotest.(check int) "no parities" 0 result.Rmcast.Tg_result.parity_transmissions;
  Alcotest.(check int) "one cycle" 1 result.Rmcast.Tg_result.rounds;
  Alcotest.(check int) "zero feedback" 0 result.Rmcast.Tg_result.feedback_messages

let test_carousel_recovers_under_loss () =
  let net = Network.independent (Rng.create ~seed:7 ()) ~receivers:500 ~p:0.05 in
  let estimate = Runner.estimate net ~k:7 ~scheme:(Runner.Carousel { h = 3 }) ~reps:200 () in
  let m = Runner.mean_m estimate in
  Alcotest.(check bool) (Printf.sprintf "sane M %.3f" m) true (m > 1.0 && m < 3.0);
  close "no feedback ever" 0.0 (Rmcast.Stats.Accumulator.mean estimate.Runner.feedback)

let test_carousel_needs_cycles_with_tiny_h () =
  (* h = 0: a receiver missing packet i must wait a full cycle for it. *)
  let net = Network.independent (Rng.create ~seed:8 ()) ~receivers:100 ~p:0.1 in
  let result =
    Rmcast.Tg_carousel.run net ~k:10 ~h:0 ~timing:Rmcast.Timing.instantaneous ~start:0.0
  in
  Alcotest.(check bool) "multiple cycles" true (result.Rmcast.Tg_result.rounds > 1)

let test_carousel_vs_integrated_cost () =
  (* Against memoryless loss with ample h, the carousel with an oracle
     stop behaves like open-loop integrated FEC: similar M. *)
  let run scheme seed =
    Runner.mean_m
      (Runner.estimate
         (Network.independent (Rng.create ~seed ()) ~receivers:300 ~p:0.02)
         ~k:7 ~scheme ~reps:300 ())
  in
  let carousel = run (Runner.Carousel { h = 7 }) 9 in
  let open_loop = run (Runner.Integrated_open_loop { a = 0 }) 10 in
  close ~tol:0.05 "carousel ~ open loop" open_loop carousel

let base_suite =
  [
    Alcotest.test_case "N1 model: ACK implosion" `Quick test_endhost_n1_implosion;
    Alcotest.test_case "N1 model: N2 wins at scale" `Quick test_endhost_n1_vs_n2;
    Alcotest.test_case "N1 model: throughput wall" `Quick test_endhost_n1_wall;
    Alcotest.test_case "carousel lossless" `Quick test_carousel_lossless;
    Alcotest.test_case "carousel recovers" `Quick test_carousel_recovers_under_loss;
    Alcotest.test_case "carousel cycles with h=0" `Quick test_carousel_needs_cycles_with_tiny_h;
    Alcotest.test_case "carousel ~ open-loop integrated" `Quick test_carousel_vs_integrated_cost;
  ]

(* --- hierarchy model --- *)

module Hierarchy = Rmcast.Hierarchy

let test_hierarchy_single_group_is_flat () =
  (* G = 1 with free local repairs degenerates to... a single repairer
     relaying: top tier over 1 receiver + local tier over R. *)
  let cost =
    Hierarchy.expected_cost
      { Hierarchy.groups = 1; top = Hierarchy.Tier_no_fec; bottom = Hierarchy.Tier_no_fec;
        local_cost = 1.0 }
      ~k:7 ~p:0.01 ~receivers:1000
  in
  let relay =
    Hierarchy.flat_cost Hierarchy.Tier_no_fec ~k:7 ~p:0.01 ~receivers:1
    +. (Hierarchy.flat_cost Hierarchy.Tier_no_fec ~k:7 ~p:0.01 ~receivers:1000 -. 1.0)
  in
  close "relay identity" relay cost

let test_hierarchy_groups_of_one () =
  (* G = R: the top tier is the flat scheme over R repairers, and every
     group's bottom tier serves exactly one member — which costs the
     single-receiver repair residual E[M | R=1] - 1 = p/(1-p) per group. *)
  let p = 0.01 in
  let cost =
    Hierarchy.expected_cost
      { Hierarchy.groups = 500; top = Hierarchy.Tier_integrated;
        bottom = Hierarchy.Tier_integrated; local_cost = 0.3 }
      ~k:7 ~p ~receivers:500
  in
  let expected =
    Hierarchy.flat_cost Hierarchy.Tier_integrated ~k:7 ~p ~receivers:500
    +. (500.0 *. 0.3 *. (p /. (1.0 -. p)))
  in
  close ~tol:1e-6 "degenerate decomposition" expected cost

let test_hierarchy_beats_flat_with_cheap_local_repair () =
  let _, best =
    Hierarchy.best_group_count ~top:Hierarchy.Tier_no_fec ~bottom:Hierarchy.Tier_no_fec
      ~local_cost:0.25 ~k:7 ~p:0.01 ~receivers:1_000_000
  in
  let flat = Hierarchy.flat_cost Hierarchy.Tier_no_fec ~k:7 ~p:0.01 ~receivers:1_000_000 in
  Alcotest.(check bool) (Printf.sprintf "hier %.3f < flat %.3f" best flat) true (best < flat)

let test_hierarchy_fec_still_helps () =
  (* The paper's remark: FEC composes with hierarchy. *)
  let cost scheme =
    snd
      (Hierarchy.best_group_count ~top:scheme ~bottom:scheme ~local_cost:0.25 ~k:7 ~p:0.01
         ~receivers:1_000_000)
  in
  Alcotest.(check bool) "integrated tiers cheaper" true
    (cost Hierarchy.Tier_integrated < cost Hierarchy.Tier_no_fec)

let test_hierarchy_validation () =
  Alcotest.check_raises "bad groups"
    (Invalid_argument "Hierarchy.expected_cost: need 1 <= groups <= receivers") (fun () ->
      ignore
        (Hierarchy.expected_cost
           { Hierarchy.groups = 0; top = Hierarchy.Tier_no_fec;
             bottom = Hierarchy.Tier_no_fec; local_cost = 0.5 }
           ~k:7 ~p:0.01 ~receivers:10))

let hierarchy_suite =
  [
    Alcotest.test_case "hierarchy G=1 relay identity" `Quick test_hierarchy_single_group_is_flat;
    Alcotest.test_case "hierarchy G=R degenerates to flat" `Quick test_hierarchy_groups_of_one;
    Alcotest.test_case "hierarchy beats flat (cheap local)" `Quick
      test_hierarchy_beats_flat_with_cheap_local_repair;
    Alcotest.test_case "FEC composes with hierarchy" `Quick test_hierarchy_fec_still_helps;
    Alcotest.test_case "hierarchy validation" `Quick test_hierarchy_validation;
  ]

let suite = base_suite @ hierarchy_suite
