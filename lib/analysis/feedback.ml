module Rng = Rmc_numerics.Rng
module Dist = Rmc_numerics.Dist

let expected_naks_single_window ~firers ~window ~delay =
  if firers < 0 then invalid_arg "Feedback: negative firer count";
  if window <= 0.0 || delay < 0.0 then invalid_arg "Feedback: bad window/delay";
  if firers = 0 then 0.0
  else begin
    let d = Float.min 1.0 (delay /. window) in
    let n = float_of_int firers in
    (* P(timer i escapes) = P(t_i <= min_{j<>i} t_j + D); integrating the
       uniform order statistics gives N d + 1 - d^N. *)
    Float.min n ((n *. d) +. 1.0 -. (d ** n))
  end

let simulate_suppression rng ~slot_counts ~slot ~delay ~reps =
  if slot <= 0.0 || delay < 0.0 then invalid_arg "Feedback: bad slot/delay";
  if reps < 1 then invalid_arg "Feedback: reps must be >= 1";
  let total_timers = Array.fold_left ( + ) 0 slot_counts in
  if total_timers = 0 then 0.0
  else begin
    let times = Array.make total_timers 0.0 in
    let total = ref 0 in
    for _ = 1 to reps do
      let cursor = ref 0 in
      Array.iteri
        (fun s count ->
          for _ = 1 to count do
            times.(!cursor) <- (float_of_int s *. slot) +. (Rng.float rng *. slot);
            incr cursor
          done)
        slot_counts;
      let sub = Array.sub times 0 !cursor in
      Array.sort compare sub;
      let first = sub.(0) in
      let fired = ref 0 in
      Array.iter (fun t -> if t <= first +. delay then incr fired) sub;
      total := !total + !fired
    done;
    float_of_int !total /. float_of_int reps
  end

let slot_counts ~k ~a ~p ~receivers =
  if k < 1 || a < 0 || receivers < 1 then invalid_arg "Feedback.slot_counts: bad parameters";
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Feedback.slot_counts: p outside [0,1)";
  let volley = k + a in
  (* need l = losses - a (clamped to [0, k]); slot index = volley - l. *)
  let counts = Array.make (volley + 1) 0.0 in
  for losses = 0 to volley do
    let need = max 0 (min k (losses - a)) in
    if need > 0 then begin
      let s = volley - need in
      counts.(s) <-
        counts.(s) +. (float_of_int receivers *. Dist.Binomial.pmf ~n:volley ~p losses)
    end
  done;
  Array.map (fun expected -> int_of_float (Float.round expected)) counts

let recommended_slot ~delay =
  if delay < 0.0 then invalid_arg "Feedback.recommended_slot: negative delay";
  4.0 *. delay
