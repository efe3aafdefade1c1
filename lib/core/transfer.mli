(** High-level reliable multicast transfer.

    Wraps protocol {!Rmc_proto.Np}: takes an arbitrary byte string, chunks
    it into fixed-size packets (padding the last one), groups packets into
    TGs and runs the full NP machine over a simulated lossy network.  This
    is the ten-line path from "I have a file and a receiver population" to
    the paper's protocol.

    Configuration is an {!Rmc_core.Profile.t}; {!send} validates it and
    returns [(outcome, Error.t) result] — {!send_exn} is the raising
    variant for tests and scripts.  {!send_all} runs many messages as
    concurrent sessions over one engine. *)

type outcome = {
  report : Rmc_proto.Np.report;  (** full protocol counters *)
  bytes_sent : int;  (** payload bytes multicast, parities included *)
  efficiency : float;  (** user bytes / payload bytes multicast *)
  verified : bool;  (** every receiver reassembled the exact input *)
}

val send :
  ?profile:Rmc_core.Profile.t ->
  ?virtual_start:float ->
  ?churn:Rmc_proto.Np.Mux.churn_event list ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  string ->
  (outcome, Rmc_core.Error.t) result
(** [virtual_start] (default 0) offsets the session in virtual time so
    that several sends can share one network (see {!Rmc_proto.Np.run}).
    [churn] (default none) schedules receiver membership changes — see
    {!Rmc_proto.Np.Mux.add_flow}; the outcome's [verified] then covers the
    receivers present at the end of the run.  Returns [Error] (context
    ["Transfer.send"]) at the first input rule broken, and never raises on
    bad input: {!Rmc_proto.Np.validate_config}'s, then an empty message or
    a [payload_size] below 5, then {!Rmc_proto.Np.validate_flow}'s.  One
    path with or without churn: a {!Rmc_proto.Np.run}, whose report's
    [duration] is the virtual time its engine drained at. *)

val send_exn :
  ?profile:Rmc_core.Profile.t ->
  ?virtual_start:float ->
  ?churn:Rmc_proto.Np.Mux.churn_event list ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  string ->
  outcome
(** @raise Invalid_argument where {!send} would return [Error]. *)

type session = {
  outcome : outcome;
  started_at : float;  (** virtual time the session joined the rotation *)
  finished_at : float;  (** virtual time of the session's last event *)
}

type summary = {
  sessions : session list;  (** in the order of the messages *)
  all_verified : bool;
  total_bytes : int;  (** user bytes across sessions *)
  total_bytes_sent : int;  (** payload bytes on the wire, parities included *)
  makespan : float;  (** virtual time until the last session drained *)
}

val send_all :
  ?profile:Rmc_core.Profile.t ->
  ?metrics:Rmc_obs.Metrics.t ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  string list ->
  (summary, Rmc_core.Error.t) result
(** Many sessions, one engine: every message is a session, and the
    sessions run concurrently as flows of one fresh {!Rmc_proto.Np.Mux}
    over the shared [network], all entering the send rotation at virtual
    time 0 and drawing from the shared [rng].  The mux arbitrates the send
    slot round-robin across sessions with pending packets, and because
    every flow draws its losses from [network] with non-decreasing
    timestamps, temporally correlated loss spans session boundaries as it
    does for one long session.  The makespan of N sessions is therefore
    far below N back-to-back {!send}s while each session still
    byte-verifies on its own.

    Every message is admitted by {!send}'s rules before any flow runs;
    an empty list or the first message refused is an [Error] (context
    ["Transfer.send_all"]), and nothing raises on bad input.

    When [metrics] is given, each session's counters are recorded under a
    [session.<index>.] scope ([tx.data], [tx.parity], [naks.sent], ...,
    [verified], gauges [time.started] and [time.finished]) plus the
    [scheduler.sessions] counter and [scheduler.makespan] gauge, so the
    scoped counters sum to the totals of the returned {!summary}.
    Per-session profiles, staggered starts and a non-default delay are
    {!Rmc_proto.Np.Mux.add_flow}'s. *)

val packetize : payload_size:int -> string -> Bytes.t array
(** Split (and zero-pad) a message into payload-sized packets with a 4-byte
    length prefix in the first packet, as {!send} does.
    @raise Invalid_argument if [payload_size < 5]. *)

val reassemble : payload_size:int -> Bytes.t array -> string
(** Inverse of {!packetize}. @raise Invalid_argument on malformed input. *)
