(** Integrated FEC / hybrid ARQ (paper §3.2).

    The sender transmits a TG of k data packets plus [a] proactive parities;
    receivers that still miss packets request more parities, and the sender
    multicasts the maximum number requested.  One parity repairs a different
    loss at every receiver, which is the source of integrated FEC's
    efficiency.

    [Lr] — additional parity packets needed by one receiver with loss
    probability p — follows the negative-binomial law of §3.2, and the
    group-wide requirement [L = max_r Lr] has CDF
    [P(L <= m) = prod_r P(Lr <= m)] (eq. 4 / eq. 8).

    With an unlimited parity budget (n = infinity) the cost per packet is
    eq. (6): [E[M] = (E[L] + k + a) / k] — the paper's (unachievable at
    finite n) lower bound.  With a finite budget of h parities the block is
    abandoned and re-grouped once all h are spent; see
    {!expected_transmissions} (reconstruction of the paper's garbled finite-n
    expression; derivation in DESIGN.md §1). *)

val group_extra_cdf : k:int -> a:int -> population:Receivers.t -> int -> float
(** [P(L <= m)] by {!Receivers.group_cdf}, memoised per call site:
    partially applied [group_extra_cdf ~k ~a ~population] shares per-class
    tables across successive [m]. *)

val expected_extra : k:int -> a:int -> population:Receivers.t -> float
(** [E[L]] (eq. 5). *)

val expected_extra_conditional :
  k:int -> a:int -> population:Receivers.t -> cap:int -> float
(** [E[L | L <= cap]].  Requires [cap >= 0].  When [P(L <= cap)]
    underflows to 0 (enormous populations), returns [cap] — the exact
    limit of the conditional mean as the population grows. *)

val expected_transmissions_unbounded :
  k:int -> ?a:int -> population:Receivers.t -> unit -> float
(** Eq. (6): the integrated-FEC lower bound, default [a = 0]. *)

val expected_transmissions :
  k:int -> h:int -> ?a:int -> population:Receivers.t -> unit -> float
(** Finite parity budget [h] (so n = k + h), [a <= h] proactive parities:
    [E[M] = ((E[B]-1)*n + k + a + E[L | L <= h-a]) / k] with
    [E[B] = sum_{i>=0} (1 - prod_r (1 - q(k,n,p_r)^i))] the expected number
    of FEC blocks an arbitrary packet passes through
    ({!Layered.expected_blocks}). *)

module Per_receiver : sig
  (** The distribution of [Lr] (§3.2), re-exported from
      {!Rmc_numerics.Dist.Negative_binomial} with the paper's naming. *)

  val pmf : k:int -> a:int -> p:float -> int -> float
  val cdf : k:int -> a:int -> p:float -> int -> float
  val mean : k:int -> a:int -> p:float -> float
  (** [E[Lr]] by direct summation. *)
end
