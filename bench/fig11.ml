(* Figures 11 and 12: independent loss versus FBT shared loss, p = 0.01,
   R = 2^d for d = 0..17.  Figure 11: no FEC and layered (7,1);
   Figure 12: no FEC and integrated FEC (k = 7).

   Independent-loss curves come from the exact analysis (which the proto
   test suite validates against simulation); the FBT curves are
   Monte-Carlo over the full binary tree with per-node loss. *)

open Rmcast

let p = 0.01
let k = 7

let heights () = if !Harness.smoke then 13 else 17

let grid () = List.init (heights () + 1) (fun d -> d)

let independent_series ~label ~f =
  Harness.series ~label ~xs:(grid ()) ~f:(fun d ->
      let r = 1 lsl d in
      (float_of_int r, f (Receivers.homogeneous ~p ~count:r)))

let fbt_series ~label ~scheme ~seed =
  Harness.series ~label ~xs:(grid ()) ~f:(fun d ->
      let r = 1 lsl d in
      let m =
        Harness.simulate ~scheme ~k
          ~net_of_rng:(fun rng -> Network.fbt rng ~height:d ~p)
          ~seed:(seed + d) ()
      in
      (float_of_int r, m))

let run () =
  Harness.heading ~figure:11 "layered FEC (7,1): independent vs FBT shared loss";
  let series =
    [
      independent_series ~label:"no-FEC indep" ~f:(fun population ->
          Arq.expected_transmissions ~population);
      fbt_series ~label:"no-FEC FBT" ~scheme:Runner.No_fec ~seed:1100;
      independent_series ~label:"layered indep" ~f:(fun population ->
          Layered.expected_transmissions ~k ~h:1 ~population);
      fbt_series ~label:"layered FBT" ~scheme:(Runner.Layered { h = 1 }) ~seed:1200;
    ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:11 series

let run_fig12 () =
  Harness.heading ~figure:12 "integrated FEC (k=7): independent vs FBT shared loss";
  let series =
    [
      independent_series ~label:"no-FEC indep" ~f:(fun population ->
          Arq.expected_transmissions ~population);
      fbt_series ~label:"no-FEC FBT" ~scheme:Runner.No_fec ~seed:1300;
      independent_series ~label:"integrated indep" ~f:(fun population ->
          Integrated.expected_transmissions_unbounded ~k ~population ());
      fbt_series ~label:"integrated FBT" ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~seed:1400;
    ]
  in
  Harness.print_table series;
  Harness.write_csv ~figure:12 series
