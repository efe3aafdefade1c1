type timing = { spacing : float; feedback_delay : float }

(* Written so that NaN fails it too. *)
let check_timing { spacing; feedback_delay } =
  let ok x = x >= 0.0 && x < infinity in
  if not (ok spacing && ok feedback_delay) then
    invalid_arg "Latency: spacing and feedback_delay must be finite and >= 0"

(* Expected packets retransmitted over all repair rounds of pure ARQ:
   every loss of a data packet costs one retransmission slot, summed over
   rounds; that is E[M'] - 1 per packet, k (E[M'] - 1) per TG.  Rounds
   follow eq. (17): a round retransmits lost packets verbatim. *)
let no_fec ~population ~k timing =
  check_timing timing;
  let m = Arq.expected_transmissions ~population in
  let rounds = Rounds.expected_rounds ~population ~k in
  (float_of_int k *. timing.spacing)
  +. ((rounds -. 1.0) *. timing.feedback_delay)
  +. (float_of_int k *. (m -. 1.0) *. timing.spacing)

let integrated ~population ~k ?(a = 0) timing () =
  check_timing timing;
  let rounds = Rounds.expected_rounds ~population ~k in
  let extra = Integrated.expected_extra ~k ~a ~population in
  (float_of_int (k + a) *. timing.spacing)
  +. ((rounds -. 1.0) *. timing.feedback_delay)
  +. (extra *. timing.spacing)

let layered ~population ~k ~h timing =
  check_timing timing;
  let n = k + h in
  (* Rounds at block granularity: a packet still missing after m blocks
     with probability q^m; every receiver must clear every packet. *)
  let rounds =
    Receivers.expected_max population (fun p ->
        Rounds.per_receiver_cdf ~p:(Layered.rm_loss_probability ~k ~h ~p) ~k)
  in
  let m = Layered.expected_transmissions ~k ~h ~population in
  (* Total packets sent per TG = k * E[M]; the first block sends n of
     them, the rest ride in repair blocks separated by feedback delays. *)
  (float_of_int n *. timing.spacing)
  +. ((rounds -. 1.0) *. timing.feedback_delay)
  +. (((float_of_int k *. m) -. float_of_int n) *. timing.spacing)
