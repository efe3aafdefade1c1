(* Heterogeneous receivers (§3.3): a few receivers behind a lossy link
   dictate the cost for the whole group.

   A 10,000-receiver group has a fraction of "mobile" receivers at 25%
   loss; the rest sit at 1%.  We compare the analysis with an actual NP
   run over a matching heterogeneous network, and show what ejecting the
   high-loss receivers (the paper's suggestion) would save.

   Run with: dune exec examples/heterogeneous_group.exe *)

open Rmcast

let count = 10_000
let k = 20

let analysis fraction =
  let population = Receivers.two_class ~p_low:0.01 ~p_high:0.25 ~high_fraction:fraction ~count in
  Integrated.expected_transmissions_unbounded ~k ~population ()

let simulate fraction seed =
  let high = int_of_float (Float.round (fraction *. float_of_int count)) in
  let classes = [ (0.01, count - high); (0.25, high) ] in
  let network = Network.heterogeneous (Rng.create ~seed ()) ~classes in
  let estimate =
    Runner.estimate network ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps:150 ()
  in
  Runner.mean_m estimate

let () =
  Printf.printf "Integrated FEC (k = %d) over %d receivers, 1%% baseline loss:\n\n" k count;
  Printf.printf "  %-22s %12s %12s\n" "high-loss receivers" "analysis" "simulated";
  List.iter
    (fun fraction ->
      Printf.printf "  %-22s %12.3f %12.3f\n%!"
        (Printf.sprintf "%g%% (%d rcvrs)" (100.0 *. fraction)
           (int_of_float (fraction *. float_of_int count)))
        (analysis fraction)
        (simulate fraction (int_of_float (1000.0 *. fraction))))
    [ 0.0; 0.01; 0.05; 0.25 ];
  Printf.printf
    "\nJust 1%% of receivers at 25%% loss nearly doubles everyone's bandwidth\n\
     cost (the paper's Figures 9/10).  The per-TG feedback of protocol NP\n\
     tells the sender only the worst-case need, so the slow receivers are\n\
     invisible in the NAK stream but visible in the parity stream.\n\n";
  (* What would serving the two classes separately cost? *)
  let healthy = analysis 0.0 in
  let mobile_only =
    Integrated.expected_transmissions_unbounded ~k
      ~population:(Receivers.homogeneous ~p:0.25 ~count:(count / 100))
      ()
  in
  Printf.printf
    "Splitting the group (paper's ejection remark): the 99%% healthy group\n\
     costs E[M] = %.3f and a separate 1%% mobile group costs %.3f -\n\
     aggregate %.3f versus %.3f for the mixed group.\n"
    healthy mobile_only
    ((0.99 *. healthy) +. (0.01 *. mobile_only))
    (analysis 0.01)
