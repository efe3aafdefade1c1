module Dist = Rmc_numerics.Dist
module Series = Rmc_numerics.Series

let check k a =
  if k < 1 then invalid_arg "Integrated: k must be >= 1";
  if a < 0 then invalid_arg "Integrated: a must be >= 0"

(* P(Lr <= m) from a table grown geometrically on demand, so that a
   series summation over m costs O(1) amortised per term. *)
let extra_cdf ~k ~a p =
  let table = ref (Dist.Negative_binomial.cdf_array ~k ~a ~p 63) in
  fun m ->
    if m < 0 then 0.0
    else begin
      if m >= Array.length !table then
        table :=
          Dist.Negative_binomial.cdf_array ~k ~a ~p (max ((2 * Array.length !table) - 1) m);
      !table.(m)
    end

let group_extra_cdf ~k ~a ~population =
  check k a;
  Receivers.group_cdf population (extra_cdf ~k ~a)

let expected_extra ~k ~a ~population =
  check k a;
  Receivers.expected_max population (extra_cdf ~k ~a)

let expected_extra_conditional ~k ~a ~population ~cap =
  if cap < 0 then invalid_arg "Integrated.expected_extra_conditional: negative cap";
  let cdf = group_extra_cdf ~k ~a ~population in
  let at_cap = cdf cap in
  if at_cap <= 0.0 then float_of_int cap
    (* P(L <= cap) underflows for huge R; conditioned on it, the mass
       concentrates at the cap itself: P(L = cap | L <= cap) -> 1 as the
       population grows, so the limit of the conditional mean is cap. *)
  else begin
  let acc = ref 0.0 in
  for m = 0 to cap - 1 do
    acc := !acc +. (1.0 -. (cdf m /. at_cap))
  done;
  !acc
  end

let expected_transmissions_unbounded ~k ?(a = 0) ~population () =
  check k a;
  let extra = expected_extra ~k ~a ~population in
  (extra +. float_of_int (k + a)) /. float_of_int k

let expected_transmissions ~k ~h ?(a = 0) ~population () =
  check k a;
  if h < 0 then invalid_arg "Integrated.expected_transmissions: h must be >= 0";
  if a > h then invalid_arg "Integrated.expected_transmissions: a must be <= h";
  let n = k + h in
  let blocks = Layered.expected_blocks ~k ~h ~population in
  let last_block_extra =
    if h = a then 0.0 else expected_extra_conditional ~k ~a ~population ~cap:(h - a)
  in
  (((blocks -. 1.0) *. float_of_int n) +. float_of_int (k + a) +. last_block_extra)
  /. float_of_int k

module Per_receiver = struct
  let pmf ~k ~a ~p m = Dist.Negative_binomial.pmf ~k ~a ~p m
  let cdf ~k ~a ~p m = Dist.Negative_binomial.cdf ~k ~a ~p m

  let mean ~k ~a ~p =
    let cdf = extra_cdf ~k ~a p in
    Series.expectation_from_survival (fun m -> 1.0 -. cdf m)
end
