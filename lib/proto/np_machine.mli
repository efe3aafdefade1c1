(** The sans-IO core of protocol NP (paper §5.1).

    One pure state machine, two drivers.  This module holds every protocol
    decision NP makes — TG partitioning, parity budgeting, POLL rounds,
    NAK slotting and damping, suppression, receiver ejection — and nothing
    else: no {!Rmc_sim.Engine}, no [Unix], no wall clock, no sockets, no
    metrics registry.  A driver feeds typed {!event}s in and interprets
    the typed {!effect}s that come back:

    - the virtual-time driver ({!Np.Mux}) maps [Arm_timer] to
      [Engine.after] and [Send] to the simulated multicast channel;
    - the wall-clock driver ({!Rmc_transport.Udp_np}) maps [Arm_timer] to
      [Reactor.after] and [Send] to [sendto] over real UDP sockets.

    Because the machine is deterministic — its only randomness enters
    through the [rand] damping source the caller supplies — a recorded
    event stream replays to a bit-identical effect stream
    ({!Np_replay}).

    Packets are {!Rmc_wire.Header.message} values.  The machine never
    encodes or decodes them; [tg_id] is whatever namespace the driver
    uses (session-local for the simulator, wire ids for UDP). *)

module Header = Rmc_wire.Header
module Codec = Rmc_rse.Codec

type config = {
  k : int;  (** TG size (data packets per transmission group) *)
  h : int;  (** repair budget per TG *)
  proactive : int;  (** repair packets sent with the initial volley (a) *)
  pre_encode : bool;  (** encode all [h] repair packets before transmission *)
  slot : float;  (** NAK slot size Ts, seconds *)
  codec : Codec.kind;
      (** erasure codec for every TG of this machine.  Repair packet [j]
          travels as wire parity index [j] regardless of codec — for the
          rateless codecs both sides re-derive packet [j]'s combination
          from [(k, j)], so one coded repair packet can resolve different
          losses at different receivers with no wire change. *)
}

val validate_config : config -> unit
(** @raise Invalid_argument unless [k >= 1], [0 <= proactive <= h],
    [slot > 0] and [h] fits the codec's repair index space
    ([Codec.max_repair]). *)

(** Inputs.  [Tick] asks a sender for its next transmission;
    [Timer_fired] reports a previously armed NAK timer; [Feedback] is a
    NAK routed to the sender (already demuxed to its local [tg]);
    [Packet_received] is any protocol packet arriving at a receiver;
    [Retune] is a control-plane decision (from {!Rmc_control.Controller})
    adopting a new proactive/budget tuning for the sender's
    not-yet-started TGs — it lands in the event log like any other event,
    which is what keeps adaptive runs replayable. *)
type event =
  | Packet_received of Header.message
  | Timer_fired of { tg : int; round : int }
  | Feedback of { tg : int; need : int; round : int }
  | Retune of { proactive : int; budget : int }
  | Tick

(** Outputs.  The driver performs these in list order.

    [Arm_timer] {e replaces} any timer already pending for the same [tg]
    (cancel-then-arm); [Cancel_timer] is only ever emitted for a timer the
    machine believes is armed.  [Done] is emitted exactly once by a
    receiver, after every expected TG has either been delivered or given
    up — no further effects follow it. *)
type effect =
  | Send of Header.message
  | Arm_timer of { tg : int; round : int; offset : float }
  | Cancel_timer of { tg : int }
  | Deliver of { tg : int; data : Bytes.t array; reconstructed : int }
  | Ejected of { tg : int }
  | Trace of string
  | Done

val event_to_string : event -> string
(** Compact single-line form (packets as hex of their wire encoding) —
    the replay-log representation.  Total with {!event_of_string}. *)

val event_of_string : string -> (event, string) result

val effect_to_string : effect -> string
(** Single-line form for replay comparison.  [Deliver] payload bytes are
    digested (MD5), so equal strings mean bit-identical delivery without
    storing the data twice. *)

(** The sending half: owns the TG partition of the session payload, the
    parity budget, and the two job queues (repairs pre-empt the stream). *)
module Sender : sig
  type t

  val create : config -> data:Bytes.t array -> t
  (** Partition [data] into TGs of [config.k] packets (the last TG may be
      shorter and gets its own codec).  The initial stream — per TG:
      data, [proactive] parities, and a round-1 POLL — is materialized
      lazily, one TG at a time, under the tuning current when that TG's
      turn comes; without [Retune] events the walk is job-for-job
      identical to queueing everything up front.
      @raise Invalid_argument on an invalid config or empty [data]. *)

  val handle : t -> event -> effect list
  (** [Tick]: pop the next job and emit its [Send] (repairs first), or
      [[]] when idle.  [Feedback] (or [Packet_received (Nak _)]): start a
      repair round if this round was not yet serviced — queue fresh
      parities and the next POLL, or an EXHAUSTED notice when the budget
      is spent.  A NAK for a round later than the TG's last sent POLL
      answers no POLL and is ignored.  [Retune]: clamp the requested tuning to
      [0 <= proactive <= budget <= config.h] and adopt it for TGs not yet
      materialized (in-flight TGs keep the budget they started with); a
      change emits a [Trace], an identical tuning emits nothing.  Other
      events are ignored. *)

  val pending : t -> bool
  (** Jobs queued — the driver keeps ticking while this holds. *)

  val tg_count : t -> int

  val block_data : t -> tg:int -> Bytes.t array
  (** The original payload slice of one TG (for delivery verification). *)

  val data_tx : t -> int
  val parity_tx : t -> int
  val polls : t -> int
  val parities_encoded : t -> int
  val repair_rounds : t -> int

  val retunes : t -> int
  (** Retune events that actually changed the tuning. *)

  val tuning : t -> int * int
  (** The [(proactive, budget)] currently applied to newly started TGs. *)
end

(** The receiving half: per-TG FEC decode state, NAK timers and
    suppression bookkeeping.  A receiver holds exactly the blocks of its
    [expected] TGs, all created at [create] (the UDP driver lists every
    session's TGs there, so one machine serves them all).  The TG ids are
    kept sorted in an [int array] beside the blocks, and each header's TG
    is found by a binary search over it, which allocates nothing.  A block
    holds a decoder only from its TG's first DATA or PARITY until the TG
    is delivered or given up; before that, POLL, NAK and timer handling
    read the TG's need as its whole [k]. *)
module Receiver : sig
  type t

  val create : expected:(int * int) list -> config -> rand:(unit -> float) -> t
  (** [expected] lists [(tg_id, k)] pairs this receiver must resolve;
      [Done] fires once all of them are delivered or given up.  The list
      may come in any order, but may name each TG once only.  A header
      for any other TG is ignored, so an empty list gives a receiver that
      holds nothing and never finishes.  No header raises.  [rand]
      supplies the uniform [0,1) NAK damping draws — the machine's only
      randomness, injected so drivers control determinism.
      @raise Invalid_argument on an invalid config, an expected [k]
      below 1, or a TG id listed twice (its [Done] could never fire). *)

  val handle : t -> event -> effect list
  (** Data/parity: store into the TG's FEC block; on completion emit
      [Deliver] (and cancel a pending NAK timer).  POLL: compute the
      paper's slot index [max 0 (size - need)], damp within the slot, and
      [Arm_timer] when packets are missing and the round is new.
      [Timer_fired]: emit the [Send (Nak _)] if still needed (stale fires
      — a round already resolved or re-armed — are ignored).  NAK
      (overheard): suppress own timer when the overheard request covers
      our need.  EXHAUSTED: give the TG up and emit [Ejected].  After
      [Done], no events produce effects. *)

  val resolved : t -> int
  (** Expected TGs delivered or given up. *)

  val finished : t -> bool
  (** [Done] has been emitted. *)

  val delivered : t -> tg:int -> bool
  val gave_up : t -> tg:int -> bool
  val timer_armed : t -> tg:int -> bool

  val naks_sent : t -> int
  val naks_suppressed : t -> int
  val duplicates : t -> int
  (** Receptions rejected as already-held packets. *)

  val unnecessary : t -> int
  (** Receptions for TGs already resolved, plus {!duplicates}. *)

  val packets_decoded : t -> int
  (** Data packets reconstructed (not received directly). *)
end
