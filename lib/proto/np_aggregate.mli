(** The aggregate NP tier: an {!Np.Mux} flow whose receiver population is
    split into a small {e tracked cohort} of exact {!Np_machine} instances
    plus an {e aggregate remainder} held as a count-vector population
    ({!Rmc_sim.Aggregate}).

    There is no second drive loop: the cohort is an ordinary {!Np.Mux}
    flow — same engine scheduling, same wire round-trips, same shared
    damping RNG — so with [population = cohort size] the tier consumes the
    same random draws in the same order and produces event-identical
    machine streams (the equivalence contract, enforced by the aggregate
    test suite).  The remainder is attached as the flow's
    {!Np.Mux.population} hooks, which never touch the cohort's RNG:

    - every DATA/PARITY multicast binomially thins the remainder's deficit
      classes at its arrival time;
    - every POLL arms one {e virtual} NAK timer per TG at the offset the
      remainder's first-firing receiver would draw (deterministic slot from
      the maximum deficit, damping = minimum of c iid uniforms by
      inversion); overhearing an equal-or-greater cohort NAK suppresses
      it, exactly like the machine's rule;
    - a firing virtual timer feeds the sender the remainder's maximum
      deficit — what the first real NAK of that class would carry — and
      multicasts the NAK to the cohort through {!Np.Mux.population_nak};
    - EXHAUSTED ejects the remainder receivers still short of [k].

    Transmission counts, repair rounds and deficits are thereby exact in
    distribution for iid channels; per-round NAK tallies on the aggregate
    side come from a slot-occupancy estimate (receivers whose timers land
    within one propagation delay of the first also fire).  Cost per event
    is O(k) instead of O(R).  DESIGN.md §10 derives the model. *)

type report = {
  config : Np.config;
  population : int;  (** total receivers: cohort + aggregate remainder *)
  cohort : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  cohort_naks_sent : int;
  cohort_naks_suppressed : int;
  agg_naks_sent : int;
      (** slot-occupancy estimate, including each virtual NAK itself *)
  agg_naks_suppressed : int;
  parities_encoded : int;
  packets_decoded : int;  (** cohort receivers only *)
  cohort_unnecessary : int;
  agg_unnecessary : int;
  cohort_ejected : (int * int) list;
  agg_ejected : int;
  agg_complete : int;
      (** lower bound on remainder receivers holding every TG (exact when
          nothing was ejected) *)
  duration : float;
  delivered_intact : bool;  (** cohort-side payload check *)
}

val transmissions_per_packet : report -> float
(** The E[M] estimate this run realises: (data + parity) / data. *)

val check_config : Np.config -> (unit, Rmc_core.Error.t) result
(** The tier's own admission rule, beyond {!Np.validate_config}: the
    count-vector remainder assumes an MDS block codec (any [k] receptions
    decode), so the rateless codec ([`Rlnc]) is rejected; and it
    holds receivers as a deficit distribution rather than machines, so the
    adaptive controllers ([`Ewma], [`Gilbert_aware]) — whose retunes it
    cannot interpret — are rejected too.  Structured so every front end
    ([rmc simulate]/[transfer]/[serve]) surfaces the same message;
    {!Mux.add_flow} raises [Invalid_argument] with exactly
    [Rmc_core.Error.to_string] of this error. *)

(** Multiplex aggregate-tier NP transfers over one shared engine; the
    interface mirrors {!Np.Mux} with the population split described
    above. *)
module Mux : sig
  type t
  type flow

  val create : Rmc_sim.Engine.t -> t
  val engine : t -> Rmc_sim.Engine.t

  val add_flow :
    t ->
    ?config:Np.config ->
    ?start:float ->
    ?recorder:Rmc_obs.Recorder.t ->
    ?cohort:int ->
    ?channel:Rmc_sim.Aggregate.channel ->
    population:int ->
    network:Rmc_sim.Network.t ->
    rng:Rmc_numerics.Rng.t ->
    data:Bytes.t array ->
    unit ->
    flow
  (** Register a transfer of [data] to [population] receivers, of which
      [min cohort population] (default cohort 64) are exact machines wired
      to [network] — the network must therefore have exactly that many
      receivers — and the rest form the aggregate remainder evolving under
      [channel] (required iff the remainder is non-empty; use an iid
      channel matching the network's per-receiver loss process).

      With [population] equal to the cohort size no aggregate state is
      created and no extra RNG draw (not even the stream split) happens —
      the flow is then draw-for-draw identical to {!Np.Mux.add_flow} on the
      same inputs.  [recorder] captures actors ["s0"], ["r<i>"] and
      ["aggregate"] (virtual NAK/ejection summaries).
      @raise Invalid_argument on invalid config/data/start, a network whose
      receiver count differs from the cohort, or a missing [channel]. *)

  val run : t -> unit
  (** Drive the engine until every flow drains. *)

  val complete : flow -> bool
  (** Cohort delivered-or-gave-up everywhere and the remainder has no
      missing receivers. *)

  val report : flow -> report

  val started_at : flow -> float
  val finished_at : flow -> float
end

val run :
  ?config:Np.config ->
  ?start:float ->
  ?cohort:int ->
  ?channel:Rmc_sim.Aggregate.channel ->
  population:int ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  data:Bytes.t array ->
  unit ->
  report
(** One-flow convenience wrapper, mirroring {!Np.run}; [duration] is the
    engine time when the run drained. *)
