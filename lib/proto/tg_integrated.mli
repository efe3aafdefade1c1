(** Reliable transmission of one TG with integrated FEC (paper §3.2 generic
    protocol, §4.2 timing variants), over any codec.

    Both variants send the k data packets, then [a] proactive parities;
    loss recovery then uses parity packets only — each new parity repairs
    one missing packet at {e every} receiver that still needs one,
    whatever the identity of its losses.

    - {!Open_loop} ("integrated FEC 1", Fig. 13): parities follow the data
      immediately at the same rate, with no feedback; a receiver leaves the
      multicast group the moment it holds k packets, so it sees no
      unnecessary parity.  The sender keeps sending until every receiver
      has left (modelled by the simulator's oracle — in a deployment this
      is a stream of redundancy bounded by group-departure signalling).

    - {!Nak_rounds} ("integrated FEC 2" = hybrid ARQ, the data plane of
      protocol NP): after each volley the receivers report (one suppressed
      NAK) the maximum number of packets still missing; the sender
      multicasts that many parities, [timing.feedback_delay] later.

    The codec enters only through its innovation probability at the
    receiver's current rank ({!Rmc_rse.Codec.innovation_probability}): a
    received parity counts with that probability.  For the MDS block
    codecs ([`Rse], [`Cauchy]) it is 1 and the run draws nothing from
    [rng]; for the rateless codec ([`Rlnc]) a parity near
    completion may be non-innovative, which surfaces as extra repair
    rounds and a slightly higher E[M] — the reception-overhead cost the
    codec-comparison experiment measures. *)

type variant = Open_loop | Nak_rounds

val run :
  Rmc_sim.Network.t ->
  k:int ->
  ?a:int ->
  variant:variant ->
  codec:Rmc_rse.Codec.kind ->
  rng:Rmc_numerics.Rng.t ->
  timing:Timing.t ->
  start:float ->
  unit ->
  Tg_result.t
(** [a] (default 0) proactive parities accompany the initial volley.
    [rng] feeds the innovation draws only — the MDS codecs never touch it.
    The parity supply is unbounded (the analysis' n = infinity bound);
    callers wanting finite n should use the NP protocol machine. *)
