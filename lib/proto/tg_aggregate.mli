(** Aggregate-tier transmission groups: {!Tg_integrated}'s repair loop
    over an MDS codec, on a count-vector population ({!Rmc_sim.Aggregate}) instead of a
    per-receiver walk.

    Exact in distribution for channels that are iid across receivers
    (independent Bernoulli, per-receiver Gilbert-Elliott): the repair batch
    of a NAK round is the population's maximum deficit — exactly what the
    first-arriving slotted NAK reports — and every transmission thins the
    deficit classes binomially.  Cost per TG is O(k + extra parities),
    independent of R, which is what lets the simulator reach the paper's
    R = 10^6 regime (Figures 11-16); the scale bench measures the tiers
    against each other in simulated-receivers/sec.

    Shared-loss (FBT/tree) regimes have no aggregate representation and
    stay on {!Runner} over the exact tier. *)

val run :
  Rmc_numerics.Rng.t ->
  receivers:int ->
  channel:Rmc_sim.Aggregate.channel ->
  k:int ->
  ?a:int ->
  variant:Tg_integrated.variant ->
  timing:Timing.t ->
  start:float ->
  unit ->
  Tg_result.t
(** One TG; the result record is interchangeable with the exact tier's.
    [Open_loop] on a memoryless channel short-circuits to one
    {!Rmc_sim.Aggregate.Extra_parities} inversion sample (the group order
    statistic L is the entire outcome); every other combination walks the
    count vector packet by packet.  Unnecessary receptions are counted
    during repair rounds only, matching {!Tg_integrated}. *)

val estimate :
  Rmc_numerics.Rng.t ->
  receivers:int ->
  channel:Rmc_sim.Aggregate.channel ->
  ?k:int ->
  scheme:Runner.scheme ->
  ?timing:Timing.t ->
  ?reps:int ->
  unit ->
  Runner.estimate
(** {!Runner.estimate} over the aggregate tier: the same rep loop
    ({!Runner.replicate}) fills the same accumulators, so estimates are
    directly comparable across tiers.  Only the integrated schemes over an
    MDS codec ([`Rse], [`Cauchy]) have an aggregate representation — the
    receivers are held by reception count, the rule
    {!Np_aggregate.check_config} applies; [Invalid_argument] for
    [No_fec]/[Layered]/[Carousel] and for a rateless [Integrated_nak]. *)
