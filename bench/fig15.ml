(* Figure 15: burst loss vs layered FEC — no FEC, layered (7+1), (7+3),
   p = 0.01, mean burst 2, delta = 40 ms, T = 300 ms, R up to 10^4.
   Figure 16: integrated FEC 1 and 2 under the same burst loss for
   k = 7, 20, 100. *)

open Rmcast

let burst_net rng receivers =
  Network.temporal rng ~receivers ~make:(fun rng ->
      Loss.markov2 rng ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0)

let grid () =
  let upto = if !Harness.fast then 1000 else 10_000 in
  Sweep.log_spaced_ints ~from:1 ~upto ~per_decade:2

let sim ~scheme ~k ~seed receivers =
  Harness.simulate ~scheme ~k ~timing:Timing.paper_burst
    ~net_of_rng:(fun rng -> burst_net rng receivers)
    ~seed ()

let series ~label ~scheme ~k ~seed =
  Harness.series ~label ~xs:(grid ()) ~f:(fun r ->
      (float_of_int r, sim ~scheme ~k ~seed:(seed + r) r))

let run () =
  Harness.heading ~figure:15 "burst loss: no FEC vs layered (7+1) and (7+3)";
  let all =
    [
      series ~label:"no-FEC" ~scheme:Runner.No_fec ~k:7 ~seed:1500;
      series ~label:"layered(7+1)" ~scheme:(Runner.Layered { h = 1 }) ~k:7 ~seed:1600;
      series ~label:"layered(7+3)" ~scheme:(Runner.Layered { h = 3 }) ~k:7 ~seed:1700;
    ]
  in
  Harness.print_table all;
  Harness.write_csv ~figure:15 all

let run_fig16 () =
  Harness.heading ~figure:16 "burst loss: integrated FEC 1 vs 2, k = 7, 20, 100";
  let all =
    series ~label:"no-FEC" ~scheme:Runner.No_fec ~k:7 ~seed:1800
    :: List.concat_map
         (fun k ->
           [
             series
               ~label:(Printf.sprintf "integr.1-k%d" k)
               ~scheme:(Runner.Integrated_open_loop { a = 0 })
               ~k ~seed:(1900 + k);
             series
               ~label:(Printf.sprintf "integr.2-k%d" k)
               ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse })
               ~k ~seed:(2000 + k);
           ])
         [ 7; 20; 100 ]
  in
  Harness.print_table all;
  Harness.write_csv ~figure:16 all
