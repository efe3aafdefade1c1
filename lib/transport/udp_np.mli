(** Protocol NP over real UDP sockets.

    The same state machine as {!Rmc_proto.Np}, bound to the wire format of
    {!Rmc_wire.Header} and driven by the {!Reactor} wall-clock event loop.

    Two transports are available.  [`Unicast] (the default) emulates
    multicast by fan-out — each datagram goes once to every group member —
    which preserves every protocol property that matters here, NAK
    suppression in particular: receivers really do overhear each other's
    NAK datagrams and cancel their timers.  [`Multicast] uses real
    [IP_ADD_MEMBERSHIP] group sockets on the loopback interface: the
    sender transmits each datagram {e once} to a 239.255.x.y group and the
    kernel fans it out to every joined member (gate on
    {!Udp_multicast.is_available} — not every environment routes multicast
    over loopback).

    The datapath is batched end to end, and every datagram takes the
    same path: queued on the shard's one {!Udp_batch.send} batch and
    handed to the kernel by one [sendmmsg]-backed flush from its socket.
    The messages of one sender pump (every packet due under the pacing
    schedule, see [config.spacing]) coalesce back to back into pooled
    {e frames} (the wire format is self-delimiting, see
    {!Rmc_wire.Header.frame_length}) and the pump's (frame, destination)
    pairs leave in one flush; a NAK's fan-out to the sender and every
    peer leaves in one flush; what the fault shim sends joins its pump's
    flush, or a flush of its own when the shim delays it.  Every socket
    of a shard drains through the shard's one [recvmmsg] receive ring,
    one socket at a time.  EINTR is retried inside the syscall stubs.
    On platforms without those syscalls the same code runs over a portable
    one-datagram-per-syscall fallback ({!Udp_batch.native}).
    [udp.syscalls_tx]/[udp.syscalls_rx] count calls into the syscall
    stubs (a send flush of more than {!Udp_batch.max_batch} datagrams
    counts once), and the [udp.syscalls_per_datagram] gauge is their
    quotient over datagrams moved.

    {!run_multi} is the one entry point: it multiplexes N independent
    sessions over {e one} reactor and one shared sender socket, one
    receiver socket per receiver serving every session, with Bernoulli
    loss injected on reception of data/parity datagrams (control
    datagrams are spared, matching the §5 analysis assumptions).  Each
    session's datagrams carry its session id in the upper 16 bits of the
    wire [tg_id] (no wire-format change; receivers demux for free because
    blocks are keyed by the full id), NAKs coming back on the shared
    socket are routed to the owning session's sender, and all sessions
    share the memoized {!Rmc_rse} codec cache.  Per-session sender
    metrics live under a [session.<sid>.] scope of the shared registry.
    [rmc serve --transport udp] runs it.

    {!run_local} is the same run with one session (sid 0), its sender
    counters left unscoped and its report flattened to one session's —
    the path the integration tests, [examples/udp_demo.ml] and the
    benchmark exercise.

    With [~shards] greater than one, {!run_multi} partitions the sessions
    across OCaml domains — one reactor, one socket set and one datagram
    surface (receive ring, send batch, buffer pool) per shard, so no
    mutable transport state crosses a domain boundary;
    only the {!Rmc_obs.Metrics} registry (atomic counters) and the
    memoized codec cache (mutex) are shared.  Session ids stay global:
    shard s's wire sids are its slice of [0, N), and the merged report is
    indexed exactly like a one-shard run's. *)

type transport = [ `Unicast | `Multicast ]

type config = {
  k : int;
  h : int;
  proactive : int;
  payload_size : int;
  spacing : float;
      (** sender pacing: the mean interval, in seconds, between DATA/PARITY
          packets.  The schedule is absolute, so a sender behind it sends
          every due packet in one pump, up to one frame per destination;
          a sender waking from idle starts its schedule afresh and never
          bursts. *)
  slot : float;  (** NAK slot size *)
  pre_encode : bool;  (** encode every repair packet before transmission *)
  linger : float;  (** quiet period after completion before shutdown *)
  session_timeout : float;  (** hard wall-clock cap for a run *)
  codec : Rmc_rse.Codec.kind;  (** erasure codec for repair packets *)
  controller : Rmc_core.Profile.controller;
      (** redundancy control plane; [`Static] (the default) reproduces the
          pre-control-plane behaviour bit-exactly *)
}

val default_config : config
(** k = 8, h = 16, 512-byte payloads, 0.5 ms pacing, 20 ms slots, 5 s cap
    — sized for loopback sessions that finish in well under a second. *)

val config_of_profile :
  ?linger:float -> ?session_timeout:float -> Rmc_core.Profile.t -> config
(** Derive the UDP config from the user-facing profile.  [linger] and
    [session_timeout] are transport-only knobs (defaults from
    {!default_config}). *)

val max_datagram : int
(** {!Rmc_wire.Header.max_datagram}: the size of every receive and send
    buffer of this transport. *)

val drain :
  ?on_decode_error:(unit -> unit) ->
  ring:Udp_batch.recv ->
  syscalls:Rmc_obs.Metrics.counter ->
  datagrams:Rmc_obs.Metrics.counter ->
  Unix.file_descr ->
  (Rmc_wire.Header.message -> Unix.sockaddr -> unit) ->
  unit
(** [drain ~ring ~syscalls ~datagrams socket handle] reads every datagram
    queued on the (non-blocking) [socket] through the [recvmmsg] [ring] —
    the path every socket of this driver drains through — and walks each
    as a coalesced frame.  One ring may serve several sockets drained one
    at a time: each drain runs until [socket] is dry and every payload
    [handle] receives is a copy, so the next drain, of this socket or
    another, may overwrite every slot.  Within a frame every message is
    decoded in place with {!Rmc_wire.Header.decode_slice} and passed to
    [handle message from].  The only per-message allocations are the
    decoded message and its payload copy.  A message that cannot be
    delimited (a datagram truncated to the ring's slot size included)
    ends that datagram's walk ([on_decode_error] once); one that delimits but fails validation
    (corrupted CRC) invokes [on_decode_error] and the walk continues.
    [syscalls] and [datagrams] count receive syscalls and datagrams. *)

val receiver_machine_seed : seed:int -> id:int -> int
(** Seed of receiver [id]'s damping RNG, derived from the run [seed].
    Distinct from the same receiver's loss RNG, so that a capture's
    [rxseed.<id>] meta fully determines the machine's randomness while
    reception loss stays a driver concern.  Exposed for the
    driver-equivalence tests, which must seed the sim flow identically. *)

type report = {
  receivers : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  naks_sent : int;  (** NAK datagrams actually sent by receivers *)
  naks_suppressed : int;
  datagrams_dropped : int;  (** by the injected reception loss *)
  decode_failures : int;  (** datagrams the receivers could not parse *)
  completed : int;  (** receivers that decoded every TG *)
  verified : bool;  (** and every decoded payload matched *)
  ejected : (int * int) list;  (** (receiver, TG) pairs given up, in that order *)
  wall_seconds : float;
  counters : (string * int) list;  (** final {!Rmc_obs.Metrics} dump *)
}

type session_report = {
  session : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  completed : int;  (** receivers that completed every TG of this session *)
  verified : bool;  (** completed by all receivers, every payload matched *)
  ejected : (int * int) list;
      (** (receiver, session-local tg) pairs given up, in that order *)
}

type multi_report = {
  receivers : int;
  session_reports : session_report array;  (** indexed by session id *)
  naks_sent : int;  (** across all sessions (receiver-side totals) *)
  naks_suppressed : int;
  datagrams_dropped : int;
  decode_failures : int;
  all_verified : bool;
  wall_seconds : float;
  counters : (string * int) list;
}

val run_multi :
  ?config:config ->
  ?metrics:Rmc_obs.Metrics.t ->
  ?recorder:Rmc_obs.Recorder.t ->
  ?faults:Rmc_obs.Fault.spec ->
  ?transport:transport ->
  ?shards:int ->
  receivers:int ->
  loss:float ->
  seed:int ->
  sessions:Bytes.t array array ->
  unit ->
  (multi_report, Rmc_core.Error.t) result
(** Run [Array.length sessions] concurrent sessions (element [sid] is that
    session's payload array) on 127.0.0.1 over one reactor, one shared
    sender socket and [receivers] shared receiver sockets.  The loop
    stops [linger] after every receiver's machine has emitted [Done] (it
    delivered or gave up every TG of every session), or at
    [session_timeout]; [completed] and [ejected] are then read from the
    machines, and [verified] from the delivery scoreboard.

    [transport] selects the socket layer (default [`Unicast]); with
    [`Multicast] the group is derived from [seed] (see
    {!Udp_multicast.group_of_seed}) and each receiver additionally owns a
    small unicast socket its NAKs leave from, so peers can tell NAK
    sources apart on the shared group port.

    [recorder] captures every sans-IO event consumed and effect emitted by
    the sender and receiver machines (actors ["s<sid>"], ["r<id>"]), plus
    the meta header {!Rmc_proto.Np_replay.replay} needs — save it with
    {!Rmc_obs.Recorder.save} and the run can be re-executed and checked
    offline, byte-for-byte.

    [metrics] supplies the counter registry (a private one is created when
    absent); the final state is returned in [report.counters] either way.
    Per-role counters: sender [tx.data]/[tx.parity]/[tx.poll]/
    [tx.exhausted], [sender.naks_rx], [sender.repair_rounds], each under
    its session's [session.<sid>.] scope; receivers (shared: they serve
    all sessions on one socket) [rx.data]/[rx.parity]/[rx.poll]/
    [rx.exhausted], [rx.naks_tx], [rx.naks_overheard],
    [rx.naks_suppressed], [rx.decode_failures], [rx.loss_dropped],
    [rx.duplicates]; transport [udp.datagrams_tx]/[udp.datagrams_rx]/
    [udp.syscalls_tx]/[udp.syscalls_rx]/[udp.tx_errors]; plus the reactor
    and fault-shim counters.  [tx.data], [tx.parity], [tx.poll],
    [sender.repair_rounds], [rx.naks_tx], [rx.naks_suppressed],
    [rx.duplicates], [rx.loss_dropped] and [rx.decode_failures] are
    published once per shard when its loop stops; the others count live.

    [faults] arms an {!Rmc_obs.Fault} shim at the sender's datagram
    boundary: every data/parity datagram passes through it per destination
    (frames carry one message each while the shim is armed), so each
    receiver of the unicast fan-out sees an independent
    drop/duplicate/reorder/delay/corrupt pattern — under [`Multicast] the
    single group destination makes shim faults upstream-shared instead,
    like loss on the link before the fan-out.  Control datagrams are
    spared, matching the reception-loss model.  Corrupted datagrams are
    caught by the header CRC on reception and show up as
    [rx.decode_failures].

    [shards] (default 1) partitions the sessions across
    [min shards (Array.length sessions)] OCaml domains.  Sessions are split
    into contiguous slices; each shard runs its own reactor, sender socket,
    receiver sockets (each shard has its own [receivers] receivers) and
    buffer pool, so no mutable driver state crosses domains, and shard [s]
    derives its seeds from [seed + 16127 s].  The shared [metrics] registry
    is domain-safe (atomic counters — shard contributions sum; gauges are
    last-writer); per-session sender counters keep their global
    [session.<sid>.] scopes.  Under [`Multicast] each shard derives its
    own group, so shards never hear each other.  The merged report is
    indexed by global session id, [naks_sent] and friends are summed,
    [wall_seconds] is the slowest shard, and [receivers] refers to each
    shard's receiver count (total sockets scale with the shard count).
    One shard is exactly the plain multi-session run.

    Returns [Error] (context ["Udp_np.run_multi"]) on an empty session,
    bad payload sizes, [loss] outside [0, 1), no receivers, a payload too
    big for one datagram, a config whose profile
    {!Rmc_core.Profile.validate} rejects, more than 65536 sessions or more
    than 65536 TGs in one session (the wire demux packs sid and tg into 16
    bits each), a [faults] spec that {!Rmc_obs.Fault.validate} refuses,
    [shards < 1], or [recorder] or [faults] with more than one shard
    after clamping — neither is domain-safe.
    Every [Error] is returned before any socket is opened. *)

val run_local :
  ?config:config ->
  ?metrics:Rmc_obs.Metrics.t ->
  ?recorder:Rmc_obs.Recorder.t ->
  ?faults:Rmc_obs.Fault.spec ->
  ?transport:transport ->
  receivers:int ->
  loss:float ->
  seed:int ->
  data:Bytes.t array ->
  unit ->
  (report, Rmc_core.Error.t) result
(** One session: {!run_multi} with [~sessions:[| data |]] and one shard,
    so the sender is actor ["s0"] and the wire ids are the plain TG
    indices.  Two differences: the sender's counters are unscoped
    ([tx.data], not [session.0.tx.data]), and the report is the one
    session's.  Returns [Error] (context ["Udp_np.run_local"]) where
    {!run_multi} would. *)

val run_local_exn :
  ?config:config ->
  ?metrics:Rmc_obs.Metrics.t ->
  ?recorder:Rmc_obs.Recorder.t ->
  ?faults:Rmc_obs.Fault.spec ->
  ?transport:transport ->
  receivers:int ->
  loss:float ->
  seed:int ->
  data:Bytes.t array ->
  unit ->
  report
(** @raise Invalid_argument where {!run_local} would return [Error]. *)

module For_testing : sig
  val run_local :
    ?config:config ->
    tamper:(Rmc_wire.Header.message -> Rmc_wire.Header.message) ->
    receivers:int ->
    loss:float ->
    seed:int ->
    data:Bytes.t array ->
    unit ->
    report
  (** {!run_local_exn} with every message the sender seals for the wire
      rewritten by [tamper] first, so a changed payload reaches the
      receivers with a valid CRC.  The rewrite must keep the message's
      encoded size. *)
end
