module Special = Rmc_numerics.Special

module Per_receiver = struct
  let cdf ~p m = if m <= 0 then 0.0 else 1.0 -. Special.pow_1m p m
  let mean ~p = 1.0 /. (1.0 -. p)
  let prob_gt ~p m = if m <= 0 then 1.0 else Special.pow_1m p m

  let mean_given_gt2 ~p =
    if p <= 0.0 then 3.0
    else begin
      let p1 = 1.0 -. p in
      let p2 = p *. (1.0 -. p) in
      let gt2 = p *. p in
      ((mean ~p) -. p1 -. (2.0 *. p2)) /. gt2
    end
end

let cdf ~population = Receivers.group_cdf population (fun p -> Per_receiver.cdf ~p)

let expected_transmissions ~population =
  Receivers.expected_max population (fun p -> Per_receiver.cdf ~p)

let expected_transmissions_homogeneous ~p ~receivers =
  expected_transmissions ~population:(Receivers.homogeneous ~p ~count:receivers)
