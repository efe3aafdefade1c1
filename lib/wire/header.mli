(** Wire format for protocol NP packets.

    A deployment of NP needs its five message types on the wire; this
    module defines a compact, versioned, big-endian encoding with full
    validation on decode.  Both drivers of the sans-IO core use it: the
    UDP binding puts these bytes in real datagrams, and the simulator
    routes every packet through the same encoding (see
    {!Rmc_proto.Np.Mux}) so the two stay byte-equivalent by construction.

    Layout (all integers big-endian):
    {v
    offset  size  field
    0       4     magic "RMCP"
    4       1     version (currently 2)
    5       1     message type
    6       4     tg_id
    10      2     k       (data packets in this TG)
    12      2     index / need / size (per message type)
    14      4     round
    18      4     payload length (DATA and PARITY only, else 0)
    22      4     CRC-32 of the whole datagram (this field as zero)
    26      ...   payload
    v}

    The checksum covers header and payload; {!decode} rejects any datagram
    whose stored CRC does not match ([Error "checksum mismatch"]).  It is
    the standard CRC-32 (IEEE 802.3 polynomial, reflected: zlib's [crc32]
    of the datagram with this field zeroed), computed in C on one of two
    paths chosen once at load: PCLMULQDQ folding for payloads of 64 bytes
    or more where the host has it, slicing-by-8 for the header, the tails
    and every other host ({!For_testing.paths} lists what this host
    runs).  A 1,050-byte DATA datagram checksums in about 0.1 us folding
    and 0.7 us slicing-by-8 on a 2-vCPU Xeon, so the payload copy is now
    a large share of {!decode_slice}.

    Encode and decode accept the same field ranges: [tg_id] and [round]
    are full 32-bit values, [k] and [index]/[need]/[size] 16-bit.

    {2 Slice API and aliasing contract}

    The allocation-lean datapath works on {e slices} of long-lived
    buffers: {!encode_into} serializes straight into a pooled send buffer
    and {!decode_slice} parses straight out of a reusable recv buffer,
    so the per-datagram allocation is the decoded message and its one
    payload copy (DATA/PARITY) instead of a fresh datagram-sized buffer
    per packet.  The contract:

    - {!encode_into} writes exactly [encoded_size message] bytes at
      [off], touches nothing else and allocates nothing; the caller may
      reuse the rest of the buffer freely.
    - {!decode_slice} reads only [\[off, off+len)] and returns messages
      that do {e not} alias the input: DATA/PARITY payloads are copied
      out, so the caller may overwrite the buffer (e.g. with the next
      datagram) as soon as the call returns.
    - {!set_tg_id} pokes the [tg_id] field of an already-encoded datagram
      in place (the multi-session driver rewrites the session id into the
      upper bits this way) and deliberately leaves the CRC stale; follow
      it with {!reseal_slice}, which re-checksums in place — the datagram
      is never re-materialized. *)

type message =
  | Data of { tg_id : int; k : int; index : int; payload : Bytes.t }
      (** [index] in [0, k). *)
  | Parity of { tg_id : int; k : int; index : int; round : int; payload : Bytes.t }
      (** [index] is the parity number within the FEC block ([>= 0]). *)
  | Poll of { tg_id : int; k : int; size : int; round : int }
      (** [size] = packets sent in the round being polled. *)
  | Nak of { tg_id : int; need : int; round : int }
  | Exhausted of { tg_id : int }

val header_size : int
(** Bytes preceding the payload (26). *)

val max_datagram : int
(** The largest datagram NP builds or receives, simulated or over UDP
    (65536): a payload may be at most [max_datagram - header_size] bytes,
    the bound [Rmc_core.Profile.validate] enforces. *)

val encoded_size : message -> int
(** Exact on-the-wire size: {!header_size} plus the payload length. *)

val encode : message -> Bytes.t
(** @raise Invalid_argument on out-of-range fields ([tg_id], [round] must
    fit 32 bits; [k], [index]/[need]/[size] 16 bits; DATA [index < k]). *)

val encode_into : Bytes.t -> off:int -> message -> int
(** [encode_into buffer ~off message] serializes [message] (checksum
    included) into [buffer] starting at [off] and returns the number of
    bytes written ([encoded_size message]).  The bytes written are
    identical to [encode message].
    @raise Invalid_argument on out-of-range fields (as {!encode}) or if
    the datagram does not fit in [buffer] at [off]. *)

val decode : Bytes.t -> (message, string) result
(** Total parse-and-validate: never raises; returns a diagnostic on
    malformed input (bad magic, truncation, checksum mismatch,
    out-of-range fields...). *)

val frame_length : Bytes.t -> off:int -> len:int -> (int, string) result
(** [frame_length buffer ~off ~len] delimits the message starting at
    [off] inside a {e coalesced frame} — a datagram carrying several
    consecutive encoded messages (the batched transport packs a whole
    tick's sends into one frame).  It validates only magic and version,
    then returns [header_size + payload_length] bounded by [len]; feed
    the result to {!decode_slice} and advance by it to walk the frame.
    Never raises; a message whose length field points past [len] is
    [Error "truncated message"]. *)

val decode_slice : Bytes.t -> off:int -> len:int -> (message, string) result
(** [decode_slice buffer ~off ~len] parses the datagram occupying
    [\[off, off+len)] of [buffer], reading nothing outside that range and
    never raising — out-of-bounds slices are an [Error], not an
    exception.  Agrees with [decode (Bytes.sub buffer off len)] on every
    input; DATA/PARITY payloads are copied out of the slice, so the
    buffer may be reused immediately. *)

val reseal : Bytes.t -> unit
(** Recompute and store the CRC of an encoded datagram in place — after
    {!set_tg_id}, or for tests that hand-mutate header fields and still
    want the mutation (not the checksum) to be what {!decode} rejects.
    @raise Invalid_argument if shorter than {!header_size}. *)

val reseal_slice : Bytes.t -> off:int -> len:int -> unit
(** {!reseal} for the datagram occupying [\[off, off+len)] of a longer
    (e.g. pooled) buffer.
    @raise Invalid_argument if the slice is out of bounds or shorter than
    {!header_size}. *)

val set_tg_id : Bytes.t -> off:int -> int -> unit
(** [set_tg_id buffer ~off tg_id] overwrites the [tg_id] field of the
    datagram encoded at [off], leaving the CRC stale — callers must
    {!reseal_slice} before the datagram leaves.
    @raise Invalid_argument if [tg_id] exceeds 32 bits or the slice is
    shorter than a header. *)

val tg_id : message -> int
(** The transmission-group id, whatever the message type. *)

val datagram_crc : Bytes.t -> int
(** The CRC-32 {!decode} expects at offset 22 (checksum field read as
    zero).
    @raise Invalid_argument if shorter than {!header_size}. *)

val message_type_name : message -> string
val pp : Format.formatter -> message -> unit
val equal : message -> message -> bool

module For_testing : sig
  val paths : string list
  (** The CRC paths this host can run, best last; always starts with
      ["portable"]. *)

  val datagram_crc_slice : path:string -> Bytes.t -> off:int -> len:int -> int
  (** The CRC of the datagram at [\[off, off + len)] (checksum field read
      as zero), computed on the named path.
      @raise Invalid_argument if [path] is not in [paths], or the slice is
      out of bounds or shorter than {!header_size}. *)
end
