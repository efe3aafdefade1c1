module Dist = Rmc_numerics.Dist

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

(* One receiver clears a data packet within i blocks unless the RM layer
   loses it i times running: geometric in q. *)
let per_receiver_cdf ~k ~h p = Arq.Per_receiver.cdf ~p:(rm_loss_probability ~k ~h ~p)
let cdf ~k ~h ~population = Receivers.group_cdf population (per_receiver_cdf ~k ~h)
let expected_blocks ~k ~h ~population = Receivers.expected_max population (per_receiver_cdf ~k ~h)

let expected_transmissions ~k ~h ~population =
  check_kh k h;
  float_of_int (k + h) /. float_of_int k *. expected_blocks ~k ~h ~population

let expected_transmissions_homogeneous ~k ~h ~p ~receivers =
  expected_transmissions ~k ~h ~population:(Receivers.homogeneous ~p ~count:receivers)
