(** Monte-Carlo estimation of the paper's metrics by repeated TG
    transmissions over a simulated network. *)

type scheme =
  | No_fec  (** pure ARQ (§3 baseline / N2 data plane) *)
  | Layered of { h : int }  (** FEC layer below RM (§3.1) *)
  | Integrated_open_loop of { a : int }  (** "integrated FEC 1" (§4.2) *)
  | Integrated_nak of { a : int; codec : Rmc_rse.Codec.kind }
      (** "integrated FEC 2" / NP data plane over any codec: a parity
          reception counts only with the codec's innovation probability,
          which is 1 for the MDS codecs ({!Tg_integrated}) *)
  | Carousel of { h : int }  (** feedback-free FEC carousel (extension) *)

val scheme_name : scheme -> string
(** Stable names: [Integrated_nak] over [`Rse] is ["integrated-2(a=N)"],
    over any other codec ["coded(<codec>,a=N)"]. *)

val run_tg :
  Rmc_sim.Network.t ->
  k:int ->
  scheme:scheme ->
  ?rng:Rmc_numerics.Rng.t ->
  timing:Timing.t ->
  start:float ->
  unit ->
  Tg_result.t
(** One TG under the given scheme.  [rng] feeds the integrated schemes'
    innovation draws (a fixed-seed stream is created per call when
    omitted); only a rateless codec draws from it. *)

type estimate = {
  scheme : scheme;
  k : int;
  receivers : int;
  reps : int;
  transmissions_per_packet : Rmc_numerics.Stats.Accumulator.t;  (** M *)
  rounds : Rmc_numerics.Stats.Accumulator.t;
  feedback : Rmc_numerics.Stats.Accumulator.t;
  unnecessary_per_receiver : Rmc_numerics.Stats.Accumulator.t;
      (** unnecessary receptions per TG divided by R *)
  completion_time : Rmc_numerics.Stats.Accumulator.t;
      (** virtual seconds from the first transmission of a TG to its last
          (meaningful when [timing] has nonzero gaps) *)
}

val mean_m : estimate -> float
(** Shorthand for the mean of [transmissions_per_packet]. *)

val merge : estimate -> estimate -> estimate
(** Combine two estimates of the same experiment (same scheme, [k] and
    receiver count) run as independent replication chunks — the parallel
    [--jobs] path splits [reps] into fixed chunks, estimates each on its
    own domain with its own derived seed, and folds the chunks back in
    index order, so the merged moments are identical for any job count.
    Accumulators combine with {!Rmc_numerics.Stats.Accumulator.merge}.
    @raise Invalid_argument when the estimates disagree on scheme name,
    [k] or [receivers]. *)

val estimate :
  Rmc_sim.Network.t ->
  k:int ->
  scheme:scheme ->
  ?rng:Rmc_numerics.Rng.t ->
  ?metrics:Rmc_obs.Metrics.t ->
  ?timing:Timing.t ->
  ?reps:int ->
  unit ->
  estimate
(** [reps] (default 200) independent TGs back to back on the same network —
    for temporal-loss networks the channel state carries over between TGs,
    exactly as a long transfer would experience it.  TGs are separated by
    [timing.feedback_delay].

    [timing] defaults to {!Timing.instantaneous}.  [rng] seeds the
    innovation draws of a rateless codec (one stream across all reps; a
    fixed-seed stream is created when omitted).

    With [metrics], accumulates [runner.tgs], [runner.transmissions],
    [runner.rounds], [runner.feedback] and [runner.unnecessary] counters
    across the run. *)

val replicate :
  scheme:scheme ->
  k:int ->
  receivers:int ->
  ?metrics:Rmc_obs.Metrics.t ->
  timing:Timing.t ->
  reps:int ->
  (start:float -> Tg_result.t) ->
  estimate
(** The rep loop behind {!estimate} and {!Tg_aggregate.estimate}: runs
    [reps] TGs back to back, each starting [timing.feedback_delay] after the
    previous one finished, and fills the accumulators and [runner.*]
    counters from the results.  [scheme], [k] and [receivers] label the
    estimate; [receivers] also normalises the unnecessary receptions.
    [Invalid_argument] when [reps < 1]. *)

val burst_length_histogram :
  Rmc_sim.Loss.t ->
  packets:int ->
  spacing:float ->
  Rmc_numerics.Stats.Histogram.t
(** Feed [packets] packets spaced [spacing] apart through a loss process and
    histogram the lengths of consecutive-loss runs (Figure 14). *)
