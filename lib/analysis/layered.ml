module Dist = Rmc_numerics.Dist
module Special = Rmc_numerics.Special
module Series = Rmc_numerics.Series

let check_kh k h =
  if k < 1 then invalid_arg "Layered: k must be >= 1";
  if h < 0 then invalid_arg "Layered: h must be >= 0"

let rm_loss_probability ~k ~h ~p =
  check_kh k h;
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Layered: p outside [0,1)";
  if p = 0.0 then 0.0
  else if h = 0 then p
  else begin
    let n = k + h in
    (* Lost at the RM layer: this packet lost, and at least h of the other
       n-1 packets of the FEC block lost too. *)
    p *. Dist.Binomial.survival ~n:(n - 1) ~p (n - k - 1)
  end

let cdf ~k ~h ~population i =
  if i <= 0 then 0.0
  else begin
    let log_prod =
      Receivers.log_product_cdf population (fun p ->
          let q = rm_loss_probability ~k ~h ~p in
          if q = 0.0 then 1.0 else 1.0 -. Special.pow_1m q i)
    in
    exp log_prod
  end

let expected_transmissions ~k ~h ~population =
  check_kh k h;
  let n_over_k = float_of_int (k + h) /. float_of_int k in
  let data_transmissions =
    Series.expectation_from_survival (fun i -> 1.0 -. cdf ~k ~h ~population i)
  in
  n_over_k *. data_transmissions

let expected_transmissions_homogeneous ~k ~h ~p ~receivers =
  expected_transmissions ~k ~h ~population:(Receivers.homogeneous ~p ~count:receivers)
