(* Aggregate-tier transmission groups: the scheme-level dynamics of
   {!Tg_integrated} replayed on a count-vector population instead of a
   per-receiver walk.  Exact in distribution for iid channels: the initial
   volley is one multinomial split (memoryless) or per-packet thinning
   (bursty), each NAK round's repair batch is the population's maximum
   deficit — the quantity the first-arriving slotted NAK carries — and each
   repair parity thins every deficit class binomially.  Cost per TG is
   O(k + extra parities) binomial draws, independent of R. *)

module Aggregate = Rmc_sim.Aggregate

(* The count-vector walk: every packet thins the population's deficit
   classes. *)
let walk rng ~receivers ~channel ~k ~a ~(variant : Tg_integrated.variant)
    ~(timing : Timing.t) ~start =
  let time = ref start in
  let pop = Aggregate.create rng ~size:receivers ~k ~channel ~time:!time in
  (* Initial volley: k data + a proactive parities. *)
  (match channel with
  | Aggregate.Bernoulli _ ->
    Aggregate.bernoulli_volley pop rng ~packets:(k + a);
    time := !time +. (float_of_int (k + a) *. timing.spacing)
  | Aggregate.Gilbert _ ->
    for _ = 1 to k + a do
      Aggregate.receive pop rng ~time:!time;
      time := !time +. timing.spacing
    done);
  (* Receivers completing inside the volley may catch trailing volley
     packets they no longer need; the exact tier counts unnecessary
     receptions only during repair rounds, so discard the volley's. *)
  let unnecessary_base = Aggregate.unnecessary pop in
  let parity_tx = ref a in
  let rounds = ref 1 in
  let feedback = ref 0 in
  (match variant with
  | Open_loop ->
    while Aggregate.missing pop > 0 do
      Aggregate.receive pop rng ~time:!time;
      time := !time +. timing.spacing;
      incr parity_tx
    done
  | Nak_rounds ->
    while Aggregate.missing pop > 0 do
      incr rounds;
      incr feedback;
      time := !time +. timing.feedback_delay;
      let batch = Aggregate.max_deficit pop in
      for _ = 1 to batch do
        Aggregate.receive pop rng ~time:!time;
        time := !time +. timing.spacing;
        incr parity_tx
      done
    done);
  let unnecessary =
    match variant with
    | Open_loop -> 0 (* satisfied receivers have left the group *)
    | Nak_rounds -> Aggregate.unnecessary pop - unnecessary_base
  in
  {
    Tg_result.k;
    data_transmissions = k;
    parity_transmissions = !parity_tx;
    rounds = !rounds;
    feedback_messages = !feedback;
    unnecessary_receptions = unnecessary;
    finish_time = !time;
  }

(* One TG runner with its per-configuration setup done once.  [Open_loop] on
   a memoryless channel streams parities at the packet rate until the worst
   receiver completes, so the extra-parity count is exactly the group order
   statistic L: one inversion sample replaces the whole walk, and its group
   cdf is built here rather than per TG. *)
let tg rng ~receivers ~channel ~k ~a ~(variant : Tg_integrated.variant) ~(timing : Timing.t) =
  if k < 1 then invalid_arg "Tg_aggregate.run: k must be >= 1";
  if a < 0 then invalid_arg "Tg_aggregate.run: a must be >= 0";
  if receivers < 1 then invalid_arg "Tg_aggregate.run: need at least one receiver";
  match (variant, channel) with
  | Open_loop, Aggregate.Bernoulli { p } ->
    let sampler = Aggregate.Extra_parities.create ~k ~a ~p ~receivers in
    fun ~start ->
      let extra = Aggregate.Extra_parities.sample sampler rng in
      {
        Tg_result.k;
        data_transmissions = k;
        parity_transmissions = a + extra;
        rounds = 1;
        feedback_messages = 0;
        unnecessary_receptions = 0;
        finish_time = start +. (float_of_int (k + a + extra) *. timing.spacing);
      }
  | _ -> walk rng ~receivers ~channel ~k ~a ~variant ~timing

let run rng ~receivers ~channel ~k ?(a = 0) ~variant ~timing ~start () =
  tg rng ~receivers ~channel ~k ~a ~variant ~timing ~start

(* Receivers are held by reception count, which decodes only under an MDS
   block codec — the rule {!Np_aggregate.check_config} applies. *)
let variant_of_scheme = function
  | Runner.Integrated_open_loop { a } -> (Tg_integrated.Open_loop, a)
  | Runner.Integrated_nak { a; codec = `Rse | `Cauchy } -> (Tg_integrated.Nak_rounds, a)
  | scheme ->
    invalid_arg
      (Printf.sprintf "Tg_aggregate: no aggregate tier for scheme %s (use the exact tier)"
         (Runner.scheme_name scheme))

(* {!Runner.estimate}'s rep loop over this tier's TGs, so the two tiers'
   estimates are directly comparable (and are compared, in the
   cohort-equivalence tests and the scale bench). *)
let estimate rng ~receivers ~channel ?(k = 7) ~scheme ?(timing = Timing.instantaneous)
    ?(reps = 200) () =
  if reps < 1 then invalid_arg "Tg_aggregate.estimate: reps must be >= 1";
  let variant, a = variant_of_scheme scheme in
  Runner.replicate ~scheme ~k ~receivers ~timing ~reps
    (tg rng ~receivers ~channel ~k ~a ~variant ~timing)
