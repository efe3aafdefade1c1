(* Extension figures beyond the paper (ids E1-E5, selected with
   --figure 101..105):

   E1 (101): processing rates of the full §5 protocol family — the
             sender-initiated N1 added to the paper's N2 and NP.
   E2 (102): completion latency vs R for the recovery schemes
             (the paper's §6 future-work item, from Rmcast.Latency).
   E3 (103): NAK volume per repair round vs slot size — the slotting and
             damping trade-off the paper leaves to the application.
   E4 (104): the cost of removing feedback entirely — FEC carousel vs
             integrated FEC vs no FEC (simulation).
   E5 (105): hierarchy (designated local repairers, §1's alternative road)
             vs flat recovery, with and without FEC. *)

open Rmcast

let run_e1 () =
  Harness.heading ~figure:101 "E1: N1 vs N2 vs NP sender processing rates [pkts/ms]";
  let grid = Harness.receivers_grid () in
  let series =
    [
      Harness.series ~label:"N1-sender" ~xs:grid ~f:(fun r ->
          (float_of_int r, (Endhost_n1.n1 ~p:0.01 ~receivers:r ()).Endhost.sender /. 1000.0));
      Harness.series ~label:"N2-sender" ~xs:grid ~f:(fun r ->
          (float_of_int r, (Endhost.n2 ~p:0.01 ~receivers:r ()).Endhost.sender /. 1000.0));
      Harness.series ~label:"NP-sender" ~xs:grid ~f:(fun r ->
          (float_of_int r, (Endhost.np ~p:0.01 ~k:20 ~receivers:r ()).Endhost.sender /. 1000.0));
    ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:101 series;
  Printf.printf "N1 sustains 100 pkts/s up to R = %d (ACK implosion wall)\n"
    (Endhost_n1.max_receivers_for_throughput ~p:0.01 ~target:100.0 ())

let run_e2 () =
  Harness.heading ~figure:102 "E2: expected TG completion latency [s] (k=7, p=0.01)";
  let timing = { Latency.spacing = 0.040; feedback_delay = 0.300 } in
  let grid = Harness.receivers_grid () in
  let population r = Receivers.homogeneous ~p:0.01 ~count:r in
  let series =
    [
      Harness.series ~label:"no-FEC" ~xs:grid ~f:(fun r ->
          (float_of_int r, Latency.no_fec ~population:(population r) ~k:7 timing));
      Harness.series ~label:"layered(7+1)" ~xs:grid ~f:(fun r ->
          (float_of_int r, Latency.layered ~population:(population r) ~k:7 ~h:1 timing));
      Harness.series ~label:"integrated" ~xs:grid ~f:(fun r ->
          (float_of_int r, Latency.integrated ~population:(population r) ~k:7 timing ()));
      Harness.series ~label:"integrated a=2" ~xs:grid ~f:(fun r ->
          (float_of_int r, Latency.integrated ~population:(population r) ~k:7 ~a:2 timing ()));
    ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:102 series

let run_e3 () =
  Harness.heading ~figure:103 "E3: NAKs per repair round vs slot size (R=10^4, k=20, p=0.01)";
  let delay = 0.025 in
  let slot_counts = Feedback.slot_counts ~k:20 ~a:0 ~p:0.01 ~receivers:10_000 in
  let slots = [ 0.01; 0.025; 0.05; 0.1; 0.2; 0.4; 0.8 ] in
  (* One generator per slot, seeded from the slot in ms: the pool may run
     the cells on several domains, and a shared generator would make the
     column depend on --jobs. *)
  let rng_of_slot slot =
    Rng.create ~seed:(103_000 + Float.to_int (Float.round (slot *. 1000.0))) ()
  in
  let series =
    [
      Harness.series ~label:"naks-per-round" ~xs:slots ~f:(fun slot ->
          (slot,
           Feedback.simulate_suppression (rng_of_slot slot) ~slot_counts ~slot ~delay
             ~reps:2_000));
      Harness.series ~label:"latency-cost" ~xs:slots ~f:(fun slot ->
          (* worst-case slots traversed before the last NAK: volley size *)
          (slot, slot *. 20.0));
    ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:103 series;
  Printf.printf "recommended slot for delay %.0f ms: %.0f ms\n" (1000.0 *. delay)
    (1000.0 *. Feedback.recommended_slot ~delay)

let run_e5 () =
  Harness.heading ~figure:105 "E5: hierarchy vs flat FEC (cost per packet, local_cost=0.25)";
  let grid = Harness.receivers_grid () in
  let series =
    [
      Harness.series ~label:"flat no-FEC" ~xs:grid ~f:(fun r ->
          (float_of_int r, Hierarchy.flat_cost Hierarchy.Tier_no_fec ~k:7 ~p:0.01 ~receivers:r));
      Harness.series ~label:"flat integrated" ~xs:grid ~f:(fun r ->
          (float_of_int r, Hierarchy.flat_cost Hierarchy.Tier_integrated ~k:7 ~p:0.01 ~receivers:r));
      Harness.series ~label:"hier no-FEC" ~xs:grid ~f:(fun r ->
          let _, cost =
            Hierarchy.best_group_count ~top:Hierarchy.Tier_no_fec ~bottom:Hierarchy.Tier_no_fec
              ~local_cost:0.25 ~k:7 ~p:0.01 ~receivers:r
          in
          (float_of_int r, cost));
      Harness.series ~label:"hier integrated" ~xs:grid ~f:(fun r ->
          let _, cost =
            Hierarchy.best_group_count ~top:Hierarchy.Tier_integrated
              ~bottom:Hierarchy.Tier_integrated ~local_cost:0.25 ~k:7 ~p:0.01 ~receivers:r
          in
          (float_of_int r, cost));
    ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:105 series

let run_e4 () =
  Harness.heading ~figure:104 "E4: the price of removing feedback (FEC carousel)";
  let grid =
    Sweep.log_spaced_ints ~from:1 ~upto:(if !Harness.smoke then 10_000 else 100_000)
      ~per_decade:2
  in
  let sim scheme seed r =
    Harness.simulate ~scheme ~k:7
      ~net_of_rng:(fun rng -> Network.independent rng ~receivers:r ~p:0.01)
      ~seed:(seed + r) ()
  in
  let series =
    [
      Harness.series ~label:"no-FEC" ~xs:grid ~f:(fun r ->
          (float_of_int r, sim Runner.No_fec 4100 r));
      Harness.series ~label:"integrated-2" ~xs:grid ~f:(fun r ->
          (float_of_int r, sim (Runner.Integrated_nak { a = 0; codec = `Rse }) 4200 r));
      Harness.series ~label:"carousel(7+3)" ~xs:grid ~f:(fun r ->
          (float_of_int r, sim (Runner.Carousel { h = 3 }) 4300 r));
      Harness.series ~label:"carousel(7+7)" ~xs:grid ~f:(fun r ->
          (float_of_int r, sim (Runner.Carousel { h = 7 }) 4400 r));
    ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:104 series
