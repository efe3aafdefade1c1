(** Fault injection at the datagram boundary.

    A {!spec} declares, per datagram, what the network is allowed to do to
    it: drop it (driven by a {!Rmc_sim.Loss} process, so bursty and
    trace-driven drop patterns come for free), duplicate it, hold it back
    so a later datagram overtakes it (reorder), defer it (delay), or flip
    bytes in it (corrupt).  A {!t} is the stateful shim built from a spec:
    feed it outgoing datagrams with {!apply} and it decides their fate,
    counting every decision into {!Metrics} counters (prefix [fault.]).

    The shim is transport-agnostic: it never touches a socket.  The caller
    supplies [send] (deliver these bytes now) and [defer] (run this thunk
    after d seconds) — in the UDP transport [send] queues the bytes with
    {!Rmc_transport.Udp_batch.add}, so they leave in the driver's one
    batched flush, and [defer] is {!Rmc_transport.Reactor.after} followed
    by a flush; in tests they can be pure.

    Specs have a compact textual form for CLI use
    ([drop=0.1,dup=0.05,reorder=0.02,delay=0.001:0.01,corrupt=0.01,seed=7]);
    see {!spec_of_string}. *)

type drop =
  | No_drop
  | Drop_bernoulli of float  (** independent loss, p in [0, 1) *)
  | Drop_burst of { p : float; mean_burst : float; rate : float }
      (** {!Rmc_sim.Loss.markov2} bursty loss at [rate] datagrams/s *)

type spec = {
  drop : drop;
  duplicate : float;  (** probability a datagram is sent twice *)
  reorder : float;
      (** probability a datagram is held until the next one passes it
          (flushed after 30 ms if nothing follows) *)
  delay : (float * float) option;  (** uniform extra delay, seconds *)
  corrupt : float;  (** probability 1-3 bytes are flipped *)
  seed : int;
}

val none : spec
(** Everything off; the shim becomes a counted pass-through. *)

val validate : spec -> (unit, string) result
(** [Ok ()] iff {!create} accepts the spec: probabilities in range
    (drop below 1), a burst drop whose {!Rmc_sim.Loss.markov2}
    calibration exists, and a finite delay range [0 <= min <= max].
    NaN and infinite values are refused. *)

val spec_of_string : string -> (spec, string) result
(** Parse [key=value] pairs separated by commas.  Keys: [drop] (a
    probability, or [burst:P:LEN:RATE]), [dup], [reorder], [corrupt]
    (probabilities), [delay] ([MIN:MAX] or a single value, seconds),
    [seed].  Unknown keys, malformed numbers and specs that {!validate}
    refuses are errors. *)

val spec_to_string : spec -> string
(** Normalized textual form; omits disabled faults.
    [spec_of_string (spec_to_string s)] re-reads every enabled field. *)

type t

val create : ?metrics:Metrics.t -> spec -> t
(** Build the shim.  Counters are registered in [metrics] (an internal
    registry is created if omitted — reachable via {!stats}).
    @raise Invalid_argument when {!validate} refuses the spec. *)

val spec : t -> spec

val apply :
  t ->
  now:float ->
  defer:(float -> (unit -> unit) -> unit) ->
  send:(Bytes.t -> unit) ->
  Bytes.t ->
  unit
(** Pass one outgoing datagram through the shim.  [now] must be
    non-decreasing across calls (it drives the drop process).  [send] may
    be called zero, one or two times, immediately or from a [defer]red
    thunk; the bytes passed to [send] are never the caller's buffer when
    corrupted (a copy is mangled). *)

type stats = {
  injected : int;  (** datagrams entering the shim *)
  dropped : int;
  duplicated : int;  (** extra copies created *)
  reordered : int;  (** datagrams held back *)
  delayed : int;
  corrupted : int;  (** datagrams mangled *)
  corrupt_copies : int;  (** mangled byte-strings handed to [send] *)
  delivered : int;  (** total [send] calls issued *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
