module Special = Rmc_numerics.Special
module Series = Rmc_numerics.Series

let check p k =
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Rounds: p outside [0,1)";
  if k < 1 then invalid_arg "Rounds: k must be >= 1"

let per_receiver_cdf ~p ~k m =
  check p k;
  if m <= 0 then 0.0
  else if p = 0.0 then 1.0
  else Special.power_of_complement (Special.pow_1m p m) (float_of_int k)

let expected_rounds_per_receiver ~p ~k =
  Series.expectation_from_survival (fun m -> 1.0 -. per_receiver_cdf ~p ~k m)

let prob_rounds_gt2 ~p ~k = 1.0 -. per_receiver_cdf ~p ~k 2

let mean_rounds_given_gt2 ~p ~k =
  let gt2 = prob_rounds_gt2 ~p ~k in
  if gt2 <= 0.0 then 3.0
  else begin
    let p1 = per_receiver_cdf ~p ~k 1 in
    let p2 = per_receiver_cdf ~p ~k 2 -. p1 in
    (expected_rounds_per_receiver ~p ~k -. p1 -. (2.0 *. p2)) /. gt2
  end

let group_cdf ~population ~k = Receivers.group_cdf population (fun p -> per_receiver_cdf ~p ~k)

let expected_rounds ~population ~k =
  Receivers.expected_max population (fun p -> per_receiver_cdf ~p ~k)
