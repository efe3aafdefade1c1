(* Burst-loss study (the §4.2 story, condensed): under temporally
   correlated loss, which recovery scheme should a multicast application
   use, and does the transmission-group size matter?

   We run every scheme over the same two-state Markov channel (p = 1%,
   mean burst 2 packets, 25 pkts/s, feedback delay 300 ms) for a group of
   1000 receivers, then re-run integrated FEC with growing TG sizes.

   Run with: dune exec examples/burst_loss_study.exe *)

open Rmcast

let receivers = 1000
let reps = 150

let burst_network seed =
  Network.temporal (Rng.create ~seed ()) ~receivers ~make:(fun rng ->
      Loss.markov2 rng ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0)

let measure ?(k = 7) ~scheme ~seed () =
  let estimate =
    Runner.estimate (burst_network seed) ~k ~scheme ~timing:Timing.paper_burst ~reps ()
  in
  let low, high = Stats.Accumulator.confidence95 estimate.Runner.transmissions_per_packet in
  (Runner.mean_m estimate, low, high)

let row name (mean, low, high) =
  Printf.printf "  %-24s E[M] = %.3f   (95%% CI %.3f - %.3f)\n%!" name mean low high

let () =
  Printf.printf "Burst loss, %d receivers, p = 1%%, mean burst 2 packets:\n\n" receivers;
  Printf.printf "Scheme comparison at k = 7 (the paper's Figure 15/16 story):\n";
  row "no FEC" (measure ~scheme:Runner.No_fec ~seed:1 ());
  row "layered (7+1)" (measure ~scheme:(Runner.Layered { h = 1 }) ~seed:2 ());
  row "layered (7+3)" (measure ~scheme:(Runner.Layered { h = 3 }) ~seed:3 ());
  row "integrated FEC 1" (measure ~scheme:(Runner.Integrated_open_loop { a = 0 }) ~seed:4 ());
  row "integrated FEC 2" (measure ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~seed:5 ());
  Printf.printf
    "\nBursts wipe out consecutive packets, so the layered block (data\n\
     immediately followed by its parities) often loses more than h packets\n\
     and pays its overhead for nothing - worse than plain ARQ.\n\n";
  Printf.printf "Integrated FEC 2 vs transmission group size (Figure 16's fix):\n";
  List.iter
    (fun k ->
      row
        (Printf.sprintf "integrated, k = %d" k)
        (measure ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~seed:(10 + k) ()))
    [ 7; 20; 100 ];
  Printf.printf
    "\nA TG of 100 packets spans 4 s of sending - far longer than any burst -\n\
     so parities are effectively interleaved for free: the paper's\n\
     conclusion that k = 20 tolerates bursts without explicit interleaving.\n"
