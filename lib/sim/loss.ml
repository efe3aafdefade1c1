module Rng = Rmc_numerics.Rng

type kind =
  | Bernoulli of { p : float }
  | Markov of {
      mu01 : float; (* good -> loss-prone *)
      mu10 : float; (* loss-prone -> good *)
      p_good : float; (* per-packet loss in state 0 *)
      p_bad : float; (* per-packet loss in state 1 *)
      mutable state : int; (* 0 good, 1 bad *)
      mutable state_time : float;
      decay_memo : float array;
          (* [| dt; exp (-(mu01+mu10) dt) |] of the last query; a flat
             float array, so storing into it allocates nothing *)
    }
  | Trace of {
      spacing : float;
      trace : bool array;
      wrap : [ `Repeat | `Fail ];
      mutable wraps : int;  (* queries that landed beyond the trace end *)
    }
  | Phased of { switch_at : float; before : t; after : t }

and t = { rng : Rng.t; kind : kind; mutable last_query : float }

let bernoulli rng ~p =
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Loss.bernoulli: p outside [0,1)";
  { rng; kind = Bernoulli { p }; last_query = neg_infinity }

let gilbert_elliott rng ~mu01 ~mu10 ~p_good ~p_bad =
  if not (mu01 > 0.0 && mu10 > 0.0) then
    invalid_arg "Loss.gilbert_elliott: rates must be positive";
  if not (p_good >= 0.0 && p_good <= p_bad && p_bad < 1.0) then
    invalid_arg "Loss.gilbert_elliott: need 0 <= p_good <= p_bad < 1";
  let pi1 = mu01 /. (mu01 +. mu10) in
  let state = if Rng.bernoulli rng pi1 then 1 else 0 in
  {
    rng;
    kind =
      Markov { mu01; mu10; p_good; p_bad; state; state_time = 0.0; decay_memo = [| nan; nan |] };
    last_query = neg_infinity;
  }

let markov2_rates rng ~mu01 ~mu10 =
  if not (mu01 > 0.0 && mu10 > 0.0) then
    invalid_arg "Loss.markov2_rates: rates must be positive";
  gilbert_elliott rng ~mu01 ~mu10 ~p_good:0.0 ~p_bad:(1.0 -. Float.epsilon)

let markov2_parameters ~p ~mean_burst ~send_rate =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Loss.markov2: p outside (0,1)";
  if not (mean_burst > 1.0) then invalid_arg "Loss.markov2: mean_burst must exceed 1 packet";
  if not (send_rate > 0.0) then invalid_arg "Loss.markov2: send_rate must be positive";
  (* Calibrate so the continuation probability of a loss run at packet
     spacing delta = 1/send_rate is exactly c = 1 - 1/mean_burst:
       c = p11(delta) = p + (1-p) exp (-(mu01+mu10) delta)
     with mu01 = mu10 p/(1-p) (stationarity), giving
       mu10 = -send_rate (1-p) ln ((c-p)/(1-p)).
     This needs c > p: runs must be longer than chance alignment. *)
  let c = 1.0 -. (1.0 /. mean_burst) in
  if c <= p then
    invalid_arg "Loss.markov2: mean_burst too short for this loss probability";
  let mu10 = -.send_rate *. (1.0 -. p) *. log ((c -. p) /. (1.0 -. p)) in
  let mu01 = mu10 *. p /. (1.0 -. p) in
  (mu01, mu10)

let markov2 rng ~p ~mean_burst ~send_rate =
  let mu01, mu10 = markov2_parameters ~p ~mean_burst ~send_rate in
  markov2_rates rng ~mu01 ~mu10

let of_trace ?(wrap = `Repeat) ~spacing trace =
  if spacing <= 0.0 then invalid_arg "Loss.of_trace: spacing must be positive";
  if Array.length trace = 0 then invalid_arg "Loss.of_trace: empty trace";
  (* rng unused but keeps the record uniform *)
  {
    rng = Rng.create ~seed:0 ();
    kind = Trace { spacing; trace; wrap; wraps = 0 };
    last_query = neg_infinity;
  }

let phased ~switch_at before after =
  if not (Float.is_finite switch_at) || switch_at < 0.0 then
    invalid_arg "Loss.phased: switch_at must be finite and non-negative";
  (* rng unused, as for traces; the phases carry their own streams *)
  { rng = Rng.create ~seed:0 (); kind = Phased { switch_at; before; after }; last_query = neg_infinity }

let rec trace_wraps t =
  match t.kind with
  | Trace { wraps; _ } -> wraps
  | Phased { before; after; _ } -> trace_wraps before + trace_wraps after
  | Bernoulli _ | Markov _ -> 0

(* [decay] is [exp (-(mu01+mu10) dt)] for the gap [dt]. *)
let[@inline] to_bad_of_decay ~mu01 ~mu10 ~from_state decay =
  let pi1 = mu01 /. (mu01 +. mu10) in
  match from_state with
  | 1 -> pi1 +. ((1.0 -. pi1) *. decay) (* p11 *)
  | _ -> pi1 *. (1.0 -. decay) (* p01 *)

let transition_to_bad_probability ~mu01 ~mu10 ~from_state dt =
  to_bad_of_decay ~mu01 ~mu10 ~from_state (exp (-.(mu01 +. mu10) *. dt))

let rec lost t time =
  if time < t.last_query then invalid_arg "Loss.lost: query times must be non-decreasing";
  t.last_query <- time;
  match t.kind with
  | Phased { switch_at; before; after } ->
    lost (if time < switch_at then before else after) time
  | Bernoulli { p } -> Rng.bernoulli t.rng p
  | Trace tr ->
    let slot = int_of_float (Float.round (time /. tr.spacing)) in
    let length = Array.length tr.trace in
    if slot >= 0 && slot < length then tr.trace.(slot)
    else begin
      (match tr.wrap with
      | `Fail ->
        invalid_arg
          (Printf.sprintf "Loss.lost: trace exhausted (slot %d, trace length %d)" slot length)
      | `Repeat -> ());
      tr.wraps <- tr.wraps + 1;
      tr.trace.(((slot mod length) + length) mod length)
    end
  | Markov m ->
    (* [Float.max 0.0 gap], written out so that [dt] stays unboxed. *)
    let gap = time -. m.state_time in
    let dt = if gap > 0.0 || Float.is_nan gap then gap else 0.0 in
    (* Queries mostly come at one packet spacing, so the decay factor is
       kept for the last gap and reused when the next gap is bit-for-bit
       the same (a NaN never matches, so the first query computes it). *)
    let memo = m.decay_memo in
    if dt <> memo.(0) then begin
      memo.(0) <- dt;
      memo.(1) <- exp (-.(m.mu01 +. m.mu10) *. dt)
    end;
    let p_bad_now = to_bad_of_decay ~mu01:m.mu01 ~mu10:m.mu10 ~from_state:m.state memo.(1) in
    let in_bad = Rng.bernoulli t.rng p_bad_now in
    m.state <- (if in_bad then 1 else 0);
    m.state_time <- time;
    Rng.bernoulli t.rng (if in_bad then m.p_bad else m.p_good)

let rec loss_probability t =
  match t.kind with
  | Phased { after; _ } -> loss_probability after
  | Bernoulli { p } -> p
  | Markov { mu01; mu10; p_good; p_bad; _ } ->
    let pi1 = mu01 /. (mu01 +. mu10) in
    (pi1 *. p_bad) +. ((1.0 -. pi1) *. p_good)
  | Trace { trace; _ } ->
    let losses = Array.fold_left (fun acc lost -> if lost then acc + 1 else acc) 0 trace in
    float_of_int losses /. float_of_int (Array.length trace)

let rec expected_burst_length t ~spacing =
  if spacing <= 0.0 then invalid_arg "Loss.expected_burst_length: spacing must be positive";
  match t.kind with
  | Phased { after; _ } -> expected_burst_length after ~spacing
  | Bernoulli { p } -> 1.0 /. (1.0 -. p)
  | Markov { mu01; mu10; p_good; p_bad; _ } ->
    (* P(lost at t + spacing | lost at t): condition on the hidden state
       given a loss, transition, then lose again. *)
    let pi1 = mu01 /. (mu01 +. mu10) in
    let pi0 = 1.0 -. pi1 in
    let p_loss = (pi1 *. p_bad) +. (pi0 *. p_good) in
    if p_loss <= 0.0 then 1.0
    else begin
      let weight_bad = pi1 *. p_bad /. p_loss in
      let continue_from state =
        let p_bad_next = transition_to_bad_probability ~mu01 ~mu10 ~from_state:state spacing in
        (p_bad_next *. p_bad) +. ((1.0 -. p_bad_next) *. p_good)
      in
      let continuation =
        (weight_bad *. continue_from 1) +. ((1.0 -. weight_bad) *. continue_from 0)
      in
      1.0 /. (1.0 -. continuation)
    end
  | Trace { trace; _ } ->
    (* Empirical mean run length of consecutive losses. *)
    let runs = ref 0 and losses = ref 0 in
    let previous = ref false in
    Array.iter
      (fun l ->
        if l then begin
          incr losses;
          if not !previous then incr runs
        end;
        previous := l)
      trace;
    if !runs = 0 then 0.0 else float_of_int !losses /. float_of_int !runs
