(** Parity-based loss recovery for reliable multicast.

    Umbrella module: re-exports every layer of the library under one roof
    and hosts the high-level {!Transfer} and {!Planner} APIs.

    {2 Layers}

    - {!Gf}: Galois-field arithmetic.
    - {!Codec}, {!Rse}, {!Cauchy}, {!Rlnc}, {!Fec_block}: the codec
      registry, its three linear codes (Reed-Solomon, Cauchy, random
      linear network coding) and block bookkeeping.
    - {!Rng}, {!Dist}, {!Sampler}, {!Series}, {!Special}, {!Stats}:
      numerics.
    - {!Arq}, {!Layered}, {!Integrated}, {!Rounds}, {!Endhost},
      {!Endhost_n1}, {!Receivers}, {!Sweep}: the paper's closed-form
      models.  The sender-initiated protocol N1 enters only through its
      end-host model {!Endhost_n1}; N2 and NP are also simulated.
    - {!Engine}, {!Loss}, {!Network}, {!Topology}, {!Event_queue}: the
      discrete-event simulator.
    - {!Np}, {!N2}, {!Runner}, {!Tg_arq}, {!Tg_layered}, {!Tg_integrated},
      {!Tg_carousel}, {!Tg_aggregate}, {!Timing}, {!Tg_result}: protocol
      machines.  {!Tg_integrated} is the one integrated-FEC repair loop,
      with the codec as an input; {!Tg_aggregate} runs it on a
      count-vector population.
    - {!Np_machine}, {!Np_replay}, {!Np_drive}: the sans-IO NP core (pure
      events in, effects out), deterministic replay of captured runs, and
      the binding both NP drivers drive the core through.
    - {!Header}: the wire format.
    - {!Buffer_pool}: pooled datagram buffers, one pool per domain, for
      the allocation-lean packet datapath of the UDP driver.
    - {!Metrics}, {!Fault}, {!Recorder}: observability, fault injection
      and event/effect capture.
    - {!Planner}, {!Controller}: the control plane — one-shot parameter
      planning and the online estimator that retunes it mid-transfer.
    - {!Transfer}: the ten-line user path, for one message or many
      concurrent sessions over one engine.

    {2 Quickstart}

    {[
      let rng = Rmcast.Rng.create ~seed:42 () in
      let network = Rmcast.Network.independent rng ~receivers:1000 ~p:0.01 in
      let outcome = Rmcast.Transfer.send_exn ~network ~rng "hello, multicast" in
      assert outcome.Rmcast.Transfer.verified
    ]}

    Configuration enters through exactly one record, {!Profile}; errors
    leave through exactly one type, {!Error}.  Every entry point has a
    [result] form, which checks each input rule before anything runs and
    never raises on bad input, and an [_exn] form, which raises
    [Invalid_argument] with the same message.  Each rule has one
    definition: the profile's (the one-datagram payload bound among them)
    in {!Profile.validate}, the 16-bit TG count in
    {!Np_replay.fits_wire}, and the simulator's delay, data, start and
    churn rules in {!Np.validate_config} and {!Np.validate_flow}. *)

(* Unified configuration and errors *)
module Profile = Rmc_core.Profile
module Error = Rmc_core.Error

(* Codec *)
module Gf = Rmc_gf.Gf
module Codec = Rmc_rse.Codec
module Rse = Rmc_rse.Rse
module Cauchy = Rmc_rse.Cauchy
module Rlnc = Rmc_rse.Rlnc
module Parallel = Rmc_rse.Parallel
module Fec_block = Rmc_rse.Fec_block

(* Numerics *)
module Rng = Rmc_numerics.Rng
module Dist = Rmc_numerics.Dist
module Sampler = Rmc_numerics.Sampler
module Series = Rmc_numerics.Series
module Special = Rmc_numerics.Special
module Stats = Rmc_numerics.Stats

(* Analysis *)
module Receivers = Rmc_analysis.Receivers
module Arq = Rmc_analysis.Arq
module Layered = Rmc_analysis.Layered
module Integrated = Rmc_analysis.Integrated
module Rounds = Rmc_analysis.Rounds
module Endhost = Rmc_analysis.Endhost
module Latency = Rmc_analysis.Latency
module Feedback = Rmc_analysis.Feedback
module Endhost_n1 = Rmc_analysis.Endhost_n1
module Hierarchy = Rmc_analysis.Hierarchy
module Sweep = Rmc_analysis.Sweep

(* Simulator *)
module Engine = Rmc_sim.Engine
module Event_queue = Rmc_sim.Event_queue
module Loss = Rmc_sim.Loss
module Topology = Rmc_sim.Topology
module Trace_io = Rmc_sim.Trace_io
module Network = Rmc_sim.Network
module Aggregate = Rmc_sim.Aggregate

(* Protocols *)
module Timing = Rmc_proto.Timing
module Tg_result = Rmc_proto.Tg_result
module Tg_arq = Rmc_proto.Tg_arq
module Tg_layered = Rmc_proto.Tg_layered
module Tg_integrated = Rmc_proto.Tg_integrated
module Tg_carousel = Rmc_proto.Tg_carousel
module Runner = Rmc_proto.Runner
module Tg_aggregate = Rmc_proto.Tg_aggregate
module Np = Rmc_proto.Np
module Np_machine = Rmc_proto.Np_machine
module Np_aggregate = Rmc_proto.Np_aggregate
module Np_replay = Rmc_proto.Np_replay
module Np_drive = Rmc_proto.Np_drive
module N2 = Rmc_proto.N2

(* Wire *)
module Header = Rmc_wire.Header

(* Packet datapath *)
module Buffer_pool = Rmc_pool.Buffer_pool

(* Observability *)
module Metrics = Rmc_obs.Metrics
module Fault = Rmc_obs.Fault
module Recorder = Rmc_obs.Recorder

(* Real-socket transport *)
module Reactor = Rmc_transport.Reactor
module Udp_np = Rmc_transport.Udp_np
module Udp_batch = Rmc_transport.Udp_batch
module Udp_multicast = Rmc_transport.Udp_multicast

(* Control plane *)
module Planner = Rmc_control.Planner
module Controller = Rmc_control.Controller

(* High-level API *)
module Transfer = Transfer
