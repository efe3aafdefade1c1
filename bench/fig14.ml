(* Figure 14: distribution of the number of consecutive losses at one
   receiver, Bernoulli vs two-state Markov with mean burst length 2, at
   p = 0.01 and 25 packets/s. *)

open Rmcast

let run () =
  Harness.heading ~figure:14 "burst-length distribution (occurrences per run length)";
  let packets = if !Harness.smoke then 200_000 else 1_000_000 in
  let spacing = 0.04 in
  let histogram make_loss seed =
    let loss = make_loss (Rng.create ~seed ()) in
    Runner.burst_length_histogram loss ~packets ~spacing
  in
  let bernoulli = histogram (fun rng -> Loss.bernoulli rng ~p:0.01) 14 in
  let markov =
    histogram (fun rng -> Loss.markov2 rng ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0) 15
  in
  let to_points histogram =
    List.map (fun (length, count) -> (float_of_int length, float_of_int count))
      (Stats.Histogram.to_sorted_list histogram)
  in
  let series =
    [
      { Sweep.label = "no burst loss"; points = to_points bernoulli };
      { Sweep.label = "burst b=2"; points = to_points markov };
    ]
  in
  Printf.printf "%d packets, p = 0.01, delta = 40 ms\n" packets;
  Printf.printf "mean run: bernoulli %.3f, markov %.3f (design target 2.0)\n"
    (Stats.Histogram.mean bernoulli) (Stats.Histogram.mean markov);
  Harness.print_table series;
  Harness.write_csv ~figure:14 series
