(** The one user-facing configuration record.

    Before this module existed the stack exposed three near-duplicate
    configuration records ([Transfer.options], [Udp_np.config] and the
    [Runner] keyword soup) that had already drifted apart — different
    defaults for [k]/[h]/[payload_size], pacing only on the UDP path.
    [Profile] is the single record every public entry point consumes:
    [Transfer.send], [Transfer.send_all],
    [Udp_np.run_local]/[run_multi] and the [rmc] CLI.  The exact-tier
    [Runner.estimate] takes an explicit [~k] and [~scheme] instead.

    A profile describes {e what the sender promises}: FEC geometry
    ([k], [h], [proactive], [pre_encode], [codec]), packetization
    ([payload_size]) and pacing ([pacing], [slot]).  Environment-specific
    knobs — simulated propagation delay, UDP linger/timeout — stay with
    the layer that owns them and are derived per layer
    ([Rmc_proto.Np.config_of_profile],
    [Rmc_transport.Udp_np.config_of_profile]). *)

type codec = [ `Rse | `Cauchy | `Rlnc ]
(** The erasure codec behind repair packets.  A structural polymorphic
    variant so it unifies with [Rmc_rse.Codec.kind] without this core
    module depending on the codec library:

    - [`Rse] (default) and [`Cauchy] — MDS block codes over GF(2^8);
      any [k] of the [k + h <= 255] packets decode.
    - [`Rlnc] — a rateless code; [h] is bounded only by the 16-bit
      wire index space, and one repair packet spans the whole TG
      (different receivers repair different losses from the same
      packet). *)

type controller = [ `Static | `Ewma | `Gilbert_aware ]
(** The redundancy control plane.  Structural (like {!codec}) so it
    unifies with [Rmc_control.Controller.kind] without a dependency:

    - [`Static] (default) — the profile's [proactive]/[h] hold for the
      whole transfer; bit-exact with the pre-control-plane behaviour.
    - [`Ewma] — an online loss estimator over the sender's own NAK/POLL
      stream re-runs the planner and retunes [proactive] and the parity
      budget for TGs that have not started yet (the budget can only
      shrink below [h]: FEC blocks are built with [h] parities).
    - [`Gilbert_aware] — [`Ewma] plus a burst-length estimate; the
      proactive tail allowance is widened for loss runs via the §4.2
      two-state calibration. *)

type t = {
  k : int;  (** transmission group size (data packets per FEC block) *)
  h : int;  (** repair budget per TG *)
  proactive : int;  (** repair packets multicast with the initial volley *)
  payload_size : int;  (** bytes of payload per packet *)
  pacing : float;  (** seconds between consecutive packets of one sender *)
  slot : float;  (** NAK slot size Ts (suppression timing) *)
  pre_encode : bool;  (** encode all repair packets before transmission *)
  codec : codec;  (** erasure codec for repair packets *)
  controller : controller;  (** redundancy control plane (default [`Static]) *)
}

val default : t
(** The simulation-path default: k = 20, h = 40, a = 0, 1024-byte
    payloads, 1 ms pacing, 100 ms slots, online encoding, RSE codec. *)

val default_udp : t
(** The loopback-UDP default, sized so sessions finish in well under a
    second: k = 8, h = 16, 512-byte payloads, 0.5 ms pacing, 20 ms
    slots, RSE codec. *)

val codec_to_string : codec -> string
(** Stable lowercase names ("rse", "cauchy", "rlnc") shared by CLI
    flags and capture metadata; {!codec_of_string} inverts. *)

val codec_of_string : string -> codec option

val codec_is_rateless : codec -> bool
(** Whether [codec]'s repair budget is bounded by the wire index space
    rather than by GF(2^8)'s 255 codeword positions ([`Rlnc]). *)

val controller_to_string : controller -> string
(** Stable lowercase names ("static", "ewma", "gilbert") shared by CLI
    flags and capture metadata; {!controller_of_string} inverts (also
    accepting "gilbert-aware"/"gilbert_aware"). *)

val controller_of_string : string -> controller option

val validate : ?context:string -> t -> (t, Error.t) result
(** Check the cross-field invariants every consumer relies on:
    [1 <= k <= 65535] (wire limit), [h >= 0],
    [0 <= proactive <= h], [1 <= payload_size <= 65510] (one packet per
    datagram: {!Rmc_wire.Header.max_datagram} less the header), finite [pacing > 0]
    and [slot > 0]; plus the codec-dependent budget bound — [k + h <= 255]
    (GF(2^8) codeword positions) for the block codecs, [k + h <= 65535]
    (wire index space, [Codec.max_repair]) for the rateless one — and [h >= 1] whenever an
    adaptive controller is selected (with no repair budget there is
    nothing to retune).
    Returns the profile unchanged on success.  [context] names the entry
    point in the error (default ["Profile"]). *)

val validate_exn : ?context:string -> t -> t
(** @raise Invalid_argument when {!validate} would return [Error]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
