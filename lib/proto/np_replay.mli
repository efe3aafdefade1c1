(** Deterministic replay of captured NP runs through the sans-IO core.

    A UDP run captured with a {!Rmc_obs.Recorder} holds everything the
    pure {!Np_machine} needs to be reconstructed: the machine config, the
    session payloads, each receiver's damping-RNG seed (the [meta]
    header, written by {!record_setup}) — and the per-actor event stream
    the live machines consumed.  {!replay} rebuilds the machines, feeds
    the recorded events back in order, and compares the effects the
    machines emit {e now} against the effects recorded {e then},
    byte-for-byte (payloads compare via their wire encoding, deliveries
    via digest).  Because the core is pure and its only randomness is the
    seeded damping draw, a non-diverging replay proves the capture is a
    faithful, reproducible account of the run — independent of wall-clock
    timing, socket scheduling and packet loss, all of which live in the
    drivers and are baked into the event stream.

    Actor names follow the driver convention: ["s<sid>"] for session
    [sid]'s sender, ["r<id>"] for receiver [id]. *)

val record_setup :
  Rmc_obs.Recorder.t ->
  ?controller:Rmc_core.Profile.controller ->
  config:Np_machine.config ->
  payload_size:int ->
  receivers:int ->
  sessions:Bytes.t array array ->
  rx_seeds:int array ->
  unit ->
  unit
(** Write the meta header {!replay} needs.  [rx_seeds.(id)] must be the
    seed of receiver [id]'s damping RNG ([Rmc_numerics.Rng.create ~seed]).
    [controller] (default [`Static]) records which control plane drove the
    run — informational: the controller's decisions are already in the
    event stream as [Retune] events, so replay is deterministic without
    re-running it (and captures written before the control plane replay
    as static).  Drivers call this once, before recording any entries. *)

(** {2 Driver conventions}

    What every driver and {!replay} must agree on to build the same
    machines from the same inputs. *)

val machine_config : Rmc_core.Profile.t -> Np_machine.config
(** The machine config a profile describes. *)

val wire_tg : sid:int -> int -> int
(** [wire_tg ~sid local] packs a session id into the upper 16 bits of
    the 32-bit wire [tg_id] and the session-local TG index into the lower
    16.  Unchecked: callers bound both to [\[0, 65535\]]. *)

val sid_of_wire : int -> int
val local_of_wire : int -> int
(** The two halves of a wire [tg_id], each masked to 16 bits so a hostile
    or corrupted id cannot index outside either namespace. *)

val tg_count : k:int -> Bytes.t array -> int
(** TGs of [k] packets that carry [data] (the last may be shorter). *)

val fits_wire : k:int -> Bytes.t array -> bool
(** The one TG-count bound: [data] in TGs of [k] needs at most 65,536
    TGs, so every session-local TG index fits the wire [tg_id]'s lower 16
    bits.  The simulator's and the UDP transport's admission checks and
    {!replay} apply it. *)

val expected : k:int -> sid:int -> Bytes.t array -> (int * int) list
(** The [(wire tg, packets)] pairs a receiver must resolve for session
    [sid] carrying [data] in TGs of [k] (the last TG may be shorter) —
    the [~expected] list of [Np_machine.Receiver.create]. *)

val step :
  recorder:Rmc_obs.Recorder.t ->
  actor:string ->
  (Np_machine.event -> Np_machine.effect list) ->
  Np_machine.event ->
  Np_machine.effect list
(** [step ~recorder ~actor handle event] records [event] under [actor],
    feeds it to a machine's [handle], records each effect it returns and
    returns them — the one capture hook.  {!Np_drive}, the binding both
    drivers go through, is its only caller and calls it only while a
    recorder is attached, so captures from the sim tiers and from UDP
    share one shape. *)

type outcome = {
  events : int;  (** entries replayed as machine inputs *)
  effects : int;  (** recorded effects checked against the replay *)
  divergence : string option;
      (** [None]: the replay reproduced every recorded effect,
          bit-identically, in order.  [Some reason] pinpoints the first
          mismatch. *)
}

val replay : Rmc_obs.Recorder.t -> (outcome, string) result
(** Replay a capture.  [Error] means the capture itself is unusable:
    missing or malformed meta, or a meta whose profile
    [Rmc_core.Profile.validate] rejects (context ["capture meta"]).
    Mismatched, unparseable or misattributed
    entries yield [Ok] with [divergence = Some _] pinpointing the first
    offender. *)
