module Analysis = Rmc_analysis

type plan = {
  k : int;
  proactive : int;
  budget : int;
  expected_m : float;
  single_round_probability : float;
}

(* The budget leaves a TG this probability of ever exhausting its
   parities. *)
let budget_residual = 1e-6

let plan ~k ~p ~receivers ?(target_single_round = 0.9) () =
  if k < 1 || receivers < 1 then invalid_arg "Planner.plan: k and receivers must be >= 1";
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Planner.plan: p outside [0,1)";
  if not (target_single_round > 0.0 && target_single_round < 1.0) then
    invalid_arg "Planner.plan: target_single_round outside (0,1)";
  let population = Analysis.Receivers.homogeneous ~p ~count:receivers in
  (* Smallest a such that P(L = 0 | a proactive parities) meets the target.
     a is bounded by k: after k extra parities even a receiver that lost
     every data packet decodes. *)
  let single_round a = Analysis.Integrated.group_extra_cdf ~k ~a ~population 0 in
  let rec find_proactive a =
    if a >= k then k
    else if single_round a >= target_single_round then a
    else find_proactive (a + 1)
  in
  let proactive = find_proactive 0 in
  (* Before the budget walk: where the loss probability is so close to 1
     that this series cannot converge, it refuses at once, while the walk
     would first creep through every budget. *)
  let expected_m =
    Analysis.Integrated.expected_transmissions_unbounded ~k ~a:proactive ~population ()
  in
  (* Smallest budget h >= proactive with P(L > h - proactive) below the
     residual: the probability that a TG ever exhausts its parities. *)
  let cdf = Analysis.Integrated.group_extra_cdf ~k ~a:proactive ~population in
  let rec find_budget h =
    if 1.0 -. cdf (h - proactive) < budget_residual then h else find_budget (h + 1)
  in
  let budget = find_budget proactive in
  {
    k;
    proactive;
    budget;
    expected_m;
    single_round_probability = single_round proactive;
  }

let loss_estimate ~lost ~total =
  if lost < 0 || total < lost then invalid_arg "Planner.loss_estimate: need 0 <= lost <= total";
  float_of_int (lost + 1) /. float_of_int (total + 2)

let effective_receivers ~measured_m_nofec ~p =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Planner.effective_receivers: p outside (0,1)";
  let m_of r =
    Analysis.Arq.expected_transmissions
      ~population:(Analysis.Receivers.homogeneous ~p ~count:r)
  in
  if measured_m_nofec <= m_of 1 then 1
  else begin
    (* Bisection over R on the monotone map R -> E[M]. *)
    let rec grow hi = if m_of hi >= measured_m_nofec || hi > 100_000_000 then hi else grow (2 * hi) in
    let hi = grow 2 in
    let rec bisect lo hi =
      if hi - lo <= 1 then if measured_m_nofec -. m_of lo <= m_of hi -. measured_m_nofec then lo else hi
      else begin
        let mid = (lo + hi) / 2 in
        if m_of mid < measured_m_nofec then bisect mid hi else bisect lo mid
      end
    in
    bisect 1 hi
  end
