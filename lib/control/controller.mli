(** Online redundancy control: the estimator half of the control plane.

    The drivers feed the controller what the sender already observes for
    free — every POLL it transmits (volley boundaries and repair volumes)
    and every NAK it receives (worst-case residual loss per round) — and
    read back a {!decision} to apply to not-yet-started TGs via the
    machine's [Retune] event.  The controller never touches the machine
    itself: it is pure bookkeeping, so the Static kind costs nothing and
    the adaptive kinds stay deterministic (observations arrive in event
    order, decisions land in the capture as Retune events).

    Estimators (per session):
    - loss rate p: exponentially decayed pseudo-counts over per-TG samples
      (worst NAK need + absorbed proactive parities, zero for clean TGs),
      with half-count smoothing so the estimate decays geometrically
      through clean stretches instead of snapping to zero;
    - volume E[M]: EWMA of per-TG transmissions-per-packet, inverted
      through {!Planner.effective_receivers} to de-correlate shared loss;
    - burstiness (Gilbert_aware only): index of dispersion of the per-TG
      loss count (D = 2b - 1 for geometric bursts), calibrated through
      {!Rmc_sim.Loss.markov2_parameters}. *)

type kind = [ `Static | `Ewma | `Gilbert_aware ]

type decision = { proactive : int; budget : int }

val decision_equal : decision -> decision -> bool

type t

val create :
  kind:kind ->
  k:int ->
  h:int ->
  proactive:int ->
  receivers:int ->
  pacing:float ->
  unit ->
  t
(** [create ~kind ~k ~h ~proactive ~receivers ~pacing ()] starts a
    controller whose initial decision is the configured [(proactive, h)].
    [h] is also the hard cap: FEC blocks are constructed with [h] parities,
    so a retune can only shrink the budget, never grow it.  The estimator
    decays by 0.125 per closed TG; 3 closed TGs are required before the
    first retune; 2 TGs of lag give straggling NAKs time to arrive before
    a TG is declared clean.
    @raise Invalid_argument on non-positive [k]/[receivers]/[pacing] or
    [proactive] outside [0, h]. *)

val observe_poll : t -> tg:int -> k:int -> size:int -> round:int -> unit
(** A POLL the sender just transmitted.  Round-1 polls open the TG's
    observation window (and close windows 2 TGs behind the
    frontier); later rounds count [size] repair parities actually sent.
    No-op for [`Static]. *)

val observe_nak : t -> tg:int -> need:int -> round:int -> unit
(** A NAK the sender just received (after its own round de-duplication is
    irrelevant — every NAK is evidence).  No-op for [`Static]. *)

val decision : t -> decision
(** The tuning to apply to TGs that have not started yet.  [`Static]
    always returns the initial decision; adaptive kinds return it until
    3 TGs have closed, then re-run {!Planner.plan} at the
    estimated (p, effective receivers) point — cached until new samples
    arrive, so calling this after every event is cheap.  The adaptive
    budget is clamped to [h] and floored at [k] plus the planner's
    repair headroom: budget is reserve capacity, not sent parities, and
    a budget under [k] would strand any receiver that missed a whole
    volley — e.g. a late joiner catching up from parity. *)

val initial_decision : t -> decision
val kind : t -> kind

val samples : t -> int
(** Closed-TG samples absorbed so far. *)

val retunes : t -> int
(** How many times {!decision} changed value. *)

val p_hat : t -> float
(** Current loss-rate estimate (0 until the first sample). *)

val m_hat : t -> float
(** Current transmissions-per-packet estimate (0 until the first sample). *)

val burst_hat : t -> float
(** Current mean-burst-length estimate (1 = independent losses). *)
