(** Many sessions, one engine.

    A scheduler interleaves N independent NP transfers ({e sessions}) over
    one shared simulated network in virtual time: every session is a flow
    of the reentrant {!Rmc_proto.Np.Mux}, the shared send slot is arbitrated
    round-robin across sessions with pending packets, and — because all
    flows draw losses from the same {!Rmc_sim.Network} with non-decreasing
    timestamps — temporally correlated loss (bursts) spans session
    boundaries exactly as it does for one long-lived session.

    Sessions compete for the bottleneck concurrently, so the makespan of
    N sessions is far below N back-to-back [Transfer.send]s while every
    session still byte-verifies independently. *)

type t

val create :
  ?delay:float ->
  ?profile:Rmc_core.Profile.t ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  unit ->
  (t, Rmc_core.Error.t) result
(** [delay] is the simulated one-way latency (default
    {!Rmc_proto.Np.default_config}[.delay]); [profile] the default profile
    for {!add} (default {!Rmc_core.Profile.default}).  Returns [Error]
    (context ["Scheduler.create"]) where {!Rmc_proto.Np.validate_config}
    does: an invalid profile, or a negative or non-finite delay. *)

val create_exn :
  ?delay:float ->
  ?profile:Rmc_core.Profile.t ->
  network:Rmc_sim.Network.t ->
  rng:Rmc_numerics.Rng.t ->
  unit ->
  t
(** @raise Invalid_argument where {!create} would return [Error]. *)

val add :
  t ->
  ?profile:Rmc_core.Profile.t ->
  ?start:float ->
  name:string ->
  string ->
  (unit, Rmc_core.Error.t) result
(** Register a session transferring one payload, entering the send rotation
    at virtual time [start] (default 0).  Each session may carry its own
    profile (default: the scheduler's).  Returns [Error] (context
    ["Scheduler.add"]) where {!Transfer.prepare} does: an invalid
    profile, an empty payload, an undersized [payload_size], more TGs
    than the wire numbers, or a negative or non-finite start. *)

val add_exn :
  t -> ?profile:Rmc_core.Profile.t -> ?start:float -> name:string -> string -> unit
(** @raise Invalid_argument where {!add} would return [Error]. *)

val sessions : t -> int
(** Number of sessions registered so far. *)

type result_ = {
  name : string;
  outcome : Transfer.outcome;  (** per-session counters + verification *)
  started_at : float;  (** virtual time the session joined the rotation *)
  finished_at : float;  (** virtual time of the session's last event *)
}

type summary = {
  results : result_ list;  (** in {!add} order *)
  all_verified : bool;
  total_bytes : int;  (** user bytes across sessions *)
  total_bytes_sent : int;  (** payload bytes on the wire *)
  makespan : float;  (** virtual time until the last session drained *)
}

val run : ?metrics:Rmc_obs.Metrics.t -> t -> summary
(** Run every registered session to completion on one fresh engine.
    All inputs were validated at {!create}/{!add}, so [run] is total.

    When [metrics] is given, each session's counters are recorded under a
    [session.<index>.] scope ([tx.data], [tx.parity], [naks.sent], ...,
    [verified]) plus the aggregate [scheduler.sessions] counter and
    [scheduler.makespan] gauge — the per-scope counters sum to the global
    totals in the returned {!summary}. *)
