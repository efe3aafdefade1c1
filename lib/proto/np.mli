(** Protocol NP (paper §5.1): reliable multicast with integrated FEC,
    receiver-initiated feedback and parity retransmission.

    This is the full event-driven protocol machine — actual packet payloads
    flow through the {!Rmc_rse} codec, NAK timers really run on the
    simulation engine, and suppression happens because receivers overhear
    each other's multicast NAKs.

    Transmission of TG i proceeds in rounds:
    - round 1 sends the k data packets (plus [proactive] parities) and a
      POLL carrying the round size;
    - a receiver missing l packets schedules its NAK(i, l) timer in slot
      [s - l] (receivers missing more fire earlier), damped by a uniform
      offset within the slot; overhearing NAK(i, m) with m >= l cancels it;
    - the sender reacts to the first NAK of a round by interrupting the
      current TG, multicasting l fresh parities and a new POLL, then
      resuming.

    Parities are drawn from a finite budget of [h] per TG; if a TG exhausts
    its budget, receivers that still cannot decode are ejected (the paper's
    §5 assumption makes this an edge case for any sensible [h]).

    Control packets (POLL, NAK) are delivered reliably — the analysis'
    assumption "NAKs are never lost"; data and parity packets suffer the
    network's loss process.

    The machine is reentrant: {!Mux} multiplexes any number of independent
    transfers ({e flows}) over one virtual-time engine, arbitrating the
    shared send slot round-robin.  {!run} is the single-flow convenience
    wrapper. *)

type config = {
  k : int;  (** TG size *)
  h : int;  (** parity budget per TG *)
  proactive : int;  (** parities sent with the initial volley (a) *)
  payload_size : int;  (** bytes per packet *)
  spacing : float;  (** sender pacing, seconds per packet *)
  delay : float;  (** one-way latency, sender <-> receivers, receiver <-> receiver *)
  slot : float;  (** NAK slot size Ts *)
  pre_encode : bool;  (** encode all parities before transmission starts (§5) *)
  codec : Rmc_rse.Codec.kind;
      (** erasure codec for repair packets (see {!Np_machine.config}) *)
  controller : Rmc_core.Profile.controller;
      (** redundancy control plane; [`Static] (the default) reproduces the
          pre-control-plane behaviour bit-exactly *)
}

val default_config : config
(** k = 20, h = 40, proactive = 0, 1 KiB payloads, 1 ms spacing, 25 ms
    delay, 10 ms slots, no pre-encoding, RSE codec. *)

val config_of_profile : ?delay:float -> Rmc_core.Profile.t -> config
(** Derive the simulator config from the user-facing profile; [delay] is
    the simulation-only one-way latency (default [default_config.delay]). *)

val profile_of_config : config -> Rmc_core.Profile.t
(** Forget the simulation-only [delay]. *)

type report = {
  config : config;
  receivers : int;
  transmission_groups : int;
  data_tx : int;  (** data packets multicast (sent exactly once each) *)
  parity_tx : int;  (** parity packets multicast *)
  polls : int;
  naks_sent : int;  (** NAKs that fired (post-suppression) *)
  naks_suppressed : int;  (** NAK timers cancelled by overhearing *)
  parities_encoded : int;  (** coder invocations at the sender *)
  packets_decoded : int;  (** data packets reconstructed across receivers *)
  unnecessary_receptions : int;
      (** receptions for TGs the receiver had already completed *)
  ejected : (int * int) list;  (** (receiver, tg) pairs that gave up *)
  duration : float;  (** virtual seconds until the last event *)
  delivered_intact : bool;  (** every receiver decoded every TG correctly *)
}

val transmissions_per_packet : report -> float
(** The E[M] estimate this run realises. *)

val validate_config : ?context:string -> config -> (unit, Rmc_core.Error.t) result
(** The profile's rules ({!Rmc_core.Profile.validate} on
    {!profile_of_config}, the one-datagram payload bound among them) plus
    the simulator's own: [delay] is finite and [>= 0].  [context] names
    the caller in the error (default ["Np"]). *)

(** Multiplex several independent NP transfers over one shared engine.

    Each {!Mux.add_flow} registers a complete sender/receiver-set state
    machine; flows with pending sender jobs sit in a round-robin rotation
    and each occupies the shared send slot for its own [spacing] after a
    data/parity packet (control packets are free, as in the single-flow
    machine).  Flows may target the same or different {!Rmc_sim.Network}s —
    sharing one network makes its loss process (e.g. a bursty channel)
    span session boundaries, exactly like competing sessions behind one
    bottleneck. *)
module Mux : sig
  type t

  type flow
  (** Handle returned by {!add_flow}; query it after (or during) the run. *)

  type churn_event = {
    receiver : int;  (** index into the network's receiver set *)
    at : float;  (** virtual time the event takes effect (>= the flow's start) *)
    action : [ `Join | `Leave ];
  }
  (** Membership churn.  A receiver whose {e earliest} event is a [`Join]
      is a late joiner: it starts outside the delivery set and receives
      nothing before that time.  On join, the driver replays the sender's
      current control state at the newcomer — the latest POLL of every
      TG it still misses (so it NAKs into the normal repair path and
      catches up from parity), or EXHAUSTED for TGs whose budget is
      already spent.  On leave, armed NAK timers are cancelled; the
      machine keeps its partial blocks, so a flapper that rejoins resumes
      from what it had.  Absent receivers are excluded from {!complete}
      and from the report's [delivered_intact]. *)

  val create : Rmc_sim.Engine.t -> t
  val engine : t -> Rmc_sim.Engine.t

  val add_flow :
    t ->
    ?config:config ->
    ?start:float ->
    ?recorder:Rmc_obs.Recorder.t ->
    ?churn:churn_event list ->
    network:Rmc_sim.Network.t ->
    rng:Rmc_numerics.Rng.t ->
    data:Bytes.t array ->
    unit ->
    flow
  (** Register a transfer of [data] starting at virtual time [start]
      (default 0, must not lie in the engine's past).  The flow enters the
      send rotation at [start].

      [recorder] captures the flow's sans-IO event/effect streams (actor
      ["s0"] for the sender, ["r<i>"] per receiver) — the sim side of the
      driver-equivalence contract with {!Rmc_transport.Udp_np}.  Use one
      recorder per flow.  Churn-driven catch-up events and
      controller-driven [Retune] events are ordinary machine events, so
      captures of adaptive and churning runs replay deterministically.

      [churn] (default none) schedules receiver membership changes; the
      loss process still draws one fate per (transmission, receiver)
      whether or not the receiver is present, so adding churn never
      shifts the RNG stream of the receivers that stay.
      @raise Invalid_argument with the message of the first [Error] of
      {!validate_config} and {!validate_flow}, or on a start time in the
      engine's past. *)

  val run : t -> unit
  (** Drive the engine until every flow has drained ([Engine.run]). *)

  val complete : flow -> bool
  (** Every ({e present} receiver, TG) pair either delivered or gave up. *)

  val report : flow -> report
  (** This flow's counters; [duration] is the virtual time of the flow's
      last event (absolute, includes its [start] offset).
      [delivered_intact] covers the receivers present when asked. *)

  val started_at : flow -> float
  val finished_at : flow -> float

  val retunes : flow -> int
  (** Retune events the sender machine accepted (0 under [`Static]). *)

  val tuning : flow -> int * int
  (** The (proactive, budget) pair currently applied to newly materialized
      TGs. *)

  val present : flow -> receiver:int -> bool
  (** Is the receiver in the delivery set right now (equivalently: at the
      end of the run, once the engine has drained)? *)

  val completed_at : flow -> receiver:int -> float option
  (** Virtual time at which the receiver resolved its last expected TG
      ([None] if it never finished). *)

  val controller_estimates : flow -> (float * float * float) option
  (** [(p_hat, m_hat, burst_hat)] of the adaptive controller, [None] under
      [`Static]. *)

  (** {2 Population hooks}

      Receivers a flow holds as something other than {!Np_machine}
      instances — the seam {!Np_aggregate} attaches its count-vector
      remainder to.  The loop calls each hook one propagation [delay]
      after the multicast that triggers it, after the machine receivers'
      delivery of that multicast (one engine event for all of them).
      Hooks must not draw
      from the flow's RNG. *)

  type population = {
    on_payload : tg:int -> unit;  (** a DATA or PARITY of [tg] arrives *)
    on_poll : tg:int -> size:int -> round:int -> unit;  (** a POLL arrives *)
    on_exhausted : tg:int -> unit;  (** EXHAUSTED arrives *)
    on_nak : tg:int -> need:int -> round:int -> unit;
        (** a machine receiver's NAK is overheard *)
  }

  val set_population : flow -> population -> unit
  (** Attach the hooks; call before the engine reaches the flow's start. *)

  val population_nak : t -> flow -> tg:int -> need:int -> round:int -> unit
  (** Multicast a NAK on the population's behalf, through the same path a
      machine receiver's NAK takes: the sender and every present machine
      receiver get it one [delay] later ([on_nak] does not). *)
end

val validate_flow :
  ?context:string ->
  ?start:float ->
  ?churn:Mux.churn_event list ->
  network:Rmc_sim.Network.t ->
  config ->
  Bytes.t array ->
  (unit, Rmc_core.Error.t) result
(** The rules a flow adds to a config that passed {!validate_config}, as
    {!Mux.add_flow} would be given them: [data] is non-empty, every
    payload is [payload_size] bytes, the TGs fit the 16-bit wire index
    ({!Np_replay.fits_wire}), [start] is finite and [>= 0], and every
    churn event names a receiver of [network] at a finite time no earlier
    than [start].  Without [context] each error keeps the entry point it
    has always named (["Np.run"], or ["Np.add_flow"] for churn). *)

val run :
  ?config:config ->
  ?start:float ->
  ?churn:Mux.churn_event list ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  data:Bytes.t array ->
  unit ->
  report
(** Transfer [data] (each element one packet payload, padded/validated to
    [payload_size]) reliably to every receiver of [network].  The final TG
    may be shorter than [k]; it gets its own codec.

    [start] (virtual seconds, default 0) offsets the whole session — pass
    the previous session's [duration] to run several transfers back to
    back over one network (whose loss processes must see non-decreasing
    times).

    [churn] is {!Mux.add_flow}'s.  A one-flow {!Mux}, except that
    [duration] is the virtual time the engine drained at.
    @raise Invalid_argument where {!Mux.add_flow} does. *)

module For_testing : sig
  val tamper : Mux.flow -> (Rmc_wire.Header.message -> Rmc_wire.Header.message) -> unit
  (** Rewrite every DATA/PARITY the flow's sender multicasts before it is
      sealed for the wire, so a changed payload reaches the receivers with
      a valid CRC.  The rewrite must keep the message's encoded size. *)
end
