(** Redundancy planning: choose FEC parameters from measured conditions.

    The paper's conclusion warns that adaptive transports which model loss
    as independent will over-provision redundancy under shared loss; this
    module is the constructive counterpart: given a loss estimate and the
    receiver population, pick the proactive parity count and parity budget
    from the §3.2 analysis. *)

type plan = {
  k : int;
  proactive : int;  (** parities to send with every TG (a) *)
  budget : int;  (** parity budget per TG (h) to provision, >= proactive *)
  expected_m : float;  (** predicted E[M] under the plan *)
  single_round_probability : float;
      (** probability that no repair round at all is needed *)
}

val plan :
  k:int ->
  p:float ->
  receivers:int ->
  ?target_single_round:float ->
  unit ->
  plan
(** [plan ~k ~p ~receivers ()] chooses:
    - [proactive]: the smallest a with
      [P(every receiver decodes from the initial volley) >= target_single_round]
      (default 0.9) — eq. (4) with the group CDF at m = 0;
    - [budget]: the smallest h with [P(L > h) < 1e-6], i.e. TG
      regrouping/ejection is negligible;
    - [expected_m]: eq. (6) at the chosen a.

    @raise Invalid_argument for p outside [0, 1) or k/receivers < 1. *)

val loss_estimate : lost:int -> total:int -> float
(** Laplace-smoothed loss-rate estimator [(lost+1)/(total+2)] for feeding
    measurements back into {!plan}. *)

val effective_receivers : measured_m_nofec:float -> p:float -> int
(** The paper's §4.1 observation inverted: shared loss behaves like a
    smaller independent population.  Returns the R whose independent-loss
    no-FEC E[M] matches the measured value (by bisection over R); feed it
    to {!plan} instead of the raw receiver count to avoid over-provisioning
    under spatially correlated loss. *)
