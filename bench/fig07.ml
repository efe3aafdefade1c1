(* Figure 7: influence of the TG size k on idealized integrated FEC,
   p = 0.01, E[M] vs R.
   Figure 8: influence of the loss probability, R = 1000, E[M] vs p. *)

open Rmcast

let run () =
  Harness.heading ~figure:7 "integrated FEC vs R for k = 7, 20, 100 (p = 0.01)";
  let grid = Harness.receivers_grid () in
  let population r = Receivers.homogeneous ~p:0.01 ~count:r in
  let series =
    Harness.series ~label:"no-FEC" ~xs:grid ~f:(fun r ->
        (float_of_int r, Arq.expected_transmissions ~population:(population r)))
    :: List.map
         (fun k ->
           Harness.series ~label:(Printf.sprintf "integrated-k%d" k) ~xs:grid ~f:(fun r ->
               ( float_of_int r,
                 Integrated.expected_transmissions_unbounded ~k ~population:(population r) () )))
         [ 7; 20; 100 ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:7 series

let run_fig8 () =
  Harness.heading ~figure:8 "integrated FEC vs p for k = 7, 20, 100 (R = 1000)";
  let grid =
    Sweep.log_spaced_floats ~from:1e-3 ~upto:1e-1 ~per_decade:(if !Harness.smoke then 3 else 8)
  in
  let population p = Receivers.homogeneous ~p ~count:1000 in
  let series =
    Harness.series ~label:"no-FEC" ~xs:grid ~f:(fun p ->
        (p, Arq.expected_transmissions ~population:(population p)))
    :: List.map
         (fun k ->
           Harness.series ~label:(Printf.sprintf "integrated-k%d" k) ~xs:grid ~f:(fun p ->
               (p, Integrated.expected_transmissions_unbounded ~k ~population:(population p) ())))
         [ 7; 20; 100 ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:8 series
