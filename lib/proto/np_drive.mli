(** The one binding of an {!Np_machine} to a driver.

    Both NP interpreters — {!Np.Mux} on the virtual-time engine and
    [Rmc_transport.Udp_np] on the wall-clock reactor — bind their machines
    through this module, so the rules the machine relies on are written
    once:

    - while a recorder is attached, every event a machine consumes and
      every effect it emits pass the capture hook {!Np_replay.step};
      without one, the machine's [handle] is called directly, so an event
      costs only the machine's own work;
    - a sender's adaptive controller sees the POLLs the sender transmits
      and the NAKs it receives, and a changed decision is fed to the
      machine as a [Retune] before the next [Tick];
    - a receiver's NAK timers live in one per-TG table: [Arm_timer]
      replaces the timer pending for that TG, [Cancel_timer] on an
      unarmed TG is a no-op, and a fired timer is forgotten before its
      [Timer_fired] re-enters the machine;
    - every TG a receiver delivers is checked against what was sent on
      the flow's {!Scoreboard} before the driver's [apply] sees the
      [Deliver], so "delivered intact" is decided here and nowhere else.

    Pacing, the channel, what a delivery means to the application,
    metrics and traces stay with each driver. *)

type 'timer clock = {
  after : float -> (unit -> unit) -> 'timer;
  cancel : 'timer -> unit;
}
(** The driver's timers: [Engine.after]/[Engine.cancel] in the sim,
    [Reactor.after]/[Reactor.cancel] over UDP. *)

module Sender : sig
  type t

  val create :
    ?recorder:Rmc_obs.Recorder.t ->
    actor:string ->
    receivers:int ->
    Rmc_core.Profile.t ->
    data:Bytes.t array ->
    t
  (** The sender machine for [data] under a valid profile, plus the
      controller (sized for [receivers]) unless the profile's is
      [`Static].  [recorder] captures the machine's streams as [actor]. *)

  val machine : t -> Np_machine.Sender.t

  val tick : t -> Np_machine.effect list
  (** Feed [Retune] if the controller's decision changed since the last
      one fed, then [Tick]; show the tick's POLLs to the controller.
      Returns both events' effects, in order. *)

  val feedback : t -> tg:int -> need:int -> round:int -> Np_machine.effect list
  (** A NAK reached the sender: show it to the controller, then feed
      [Feedback]. *)

  val estimates : t -> (float * float * float) option
  (** The controller's [(p_hat, m_hat, burst_hat)]; [None] under
      [`Static]. *)
end

(** What a flow's receivers must deliver, and how many delivered each TG
    intact.  One scoreboard serves every receiver of a set of sessions
    that share those receivers: one {!Np.Mux} flow, or one shard of
    [Udp_np]'s sessions.  It holds the sessions' payloads by reference
    and allocates only at {!create}.

    On the sim tiers every receiver's decoder keeps the one wire-decoded
    buffer of each data packet, so the receivers of a multicast deliver
    the same buffers.  The scoreboard therefore keeps a one-TG memo: for
    the TG it last checked, the first buffer found intact at each row
    index (at most [k] buffers).  A delivered row that is physically
    ([==]) that buffer is accepted without a memcmp, and is compared
    again when the memo moves to another TG and when a [verdict] is
    read.  A buffer mutated after its check is thus still caught.  The
    one case the memcmp of every row caught and this does not: a buffer
    mutated and then restored between two deliveries that both
    accepted it by identity. *)
module Scoreboard : sig
  type t

  val create : k:int -> first_sid:int -> Bytes.t array array -> t
  (** [create ~k ~first_sid sent]: session [first_sid + i] carries
      [sent.(i)] in TGs of [k] packets (the last TG may be shorter),
      numbered on the wire as {!Np_replay.wire_tg} and listed by
      {!Np_replay.expected}.  Each session is within
      {!Np_replay.fits_wire}: the caller's admission check applied it.
      @raise Invalid_argument if [k < 1]. *)

  val intact : sent:Bytes.t -> Bytes.t -> bool
  (** The one definition of an intact packet: the same bytes as [sent],
      compared by memcmp ([Bytes.compare]). *)

  val record : t -> tg:int -> Bytes.t array -> unit
  (** One receiver delivered wire TG [tg] as these rows.  Intact means
      exactly the TG's packets, each {!intact}; anything else clears the
      session's {!verdict}.  A row that is the very buffer the memo holds
      for its index is taken as intact without a memcmp, and flagged for
      the re-check; any other row is compared.  A TG outside the
      scoreboard is ignored.  Allocates nothing. *)

  val verdict : t -> session:int -> bool
  (** No delivery of session [first_sid + session] recorded so far
      differed from what was sent.  Reading it first compares every
      buffer accepted by identity since its last comparison again, so a
      buffer mutated after it was accepted clears its session's
      verdict here.  Whether every receiver delivered every TG is the
      driver's to add. *)

  val intact_deliveries : t -> tg:int -> int
  (** How many intact deliveries of wire TG [tg] were recorded; 0 for a
      TG outside the scoreboard. *)

  val memcmps : t -> int
  (** How many rows {!record} and {!verdict} have compared byte by byte
      so far, re-checks included: the scoreboard's work, counted without
      a clock. *)
end

module Receiver : sig
  type 'timer t

  val create :
    ?recorder:Rmc_obs.Recorder.t ->
    actor:string ->
    clock:'timer clock ->
    scoreboard:Scoreboard.t ->
    ?entry:(Np_machine.event -> unit) ->
    apply:(Np_machine.effect -> unit) ->
    Np_machine.Receiver.t ->
    'timer t
  (** Bind a receiver machine.  Each [Deliver] is recorded on
      [scoreboard], then handed on; [apply] performs every effect but
      [Arm_timer]/[Cancel_timer], in order; a fired timer's [Timer_fired]
      enters through [entry], the driver's own entry point (default
      {!receive}).  Both callbacks are built once, here. *)

  val machine : 'timer t -> Np_machine.Receiver.t

  val receive : 'timer t -> Np_machine.event -> unit
  (** Feed one event: perform its timer effects, hand the rest to
      [apply].  The event and its effects are captured only if [create]
      was given a recorder; a reception that emits no effect then
      allocates nothing here. *)

  val cancel_timers : 'timer t -> unit
  (** Cancel and forget every armed NAK timer (the receiver left). *)
end
