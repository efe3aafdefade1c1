(** High-level reliable multicast transfer.

    Wraps protocol {!Rmc_proto.Np}: takes an arbitrary byte string, chunks
    it into fixed-size packets (padding the last one), groups packets into
    TGs and runs the full NP machine over a simulated lossy network.  This
    is the ten-line path from "I have a file and a receiver population" to
    the paper's protocol.

    Configuration is an {!Rmc_core.Profile.t}; {!send} validates it and
    returns [(outcome, Error.t) result] — {!send_exn} is the raising
    variant for tests and scripts. *)

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
    ["Transfer.send"]) where {!prepare} does — never raises on bad
    input.  One path with or without churn: a {!Rmc_proto.Np.run}, whose
    report's [duration] is the virtual time its engine drained at. *)

val send_exn :
  ?profile:Rmc_core.Profile.t ->
  ?virtual_start:float ->
  ?churn:Rmc_proto.Np.Mux.churn_event list ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  string ->
  outcome
(** @raise Invalid_argument where {!send} would return [Error]. *)

val prepare :
  context:string ->
  ?what:string ->
  ?delay:float ->
  ?start:float ->
  ?churn:Rmc_proto.Np.Mux.churn_event list ->
  network:Rmc_sim.Network.t ->
  Rmc_core.Profile.t ->
  string ->
  (Rmc_proto.Np.config * Bytes.t array, Rmc_core.Error.t) result
(** The admission check {!send} and {!Scheduler.add} share: the flow's
    config ({!Rmc_proto.Np.config_of_profile} with [delay]) and its
    {!packetize}d message, or the first rule broken, under [context]:
    {!Rmc_proto.Np.validate_config}'s, then an empty message
    (["empty <what>"], [what] defaulting to ["message"]) or a
    [payload_size] below 5, then {!Rmc_proto.Np.validate_flow}'s. *)

val outcome_of_report : message_len:int -> Rmc_proto.Np.report -> outcome
(** Derive the byte accounting and verification flag from a raw NP report —
    how {!send} (and the {!Scheduler}) summarise a finished flow. *)

val packetize : payload_size:int -> string -> Bytes.t array
(** Split (and zero-pad) a message into payload-sized packets with a 4-byte
    length prefix in the first packet, as {!send} does.
    @raise Invalid_argument if [payload_size < 5]. *)

val reassemble : payload_size:int -> Bytes.t array -> string
(** Inverse of {!packetize}. @raise Invalid_argument on malformed input. *)
