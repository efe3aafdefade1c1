(** Systematic Reed-Solomon erasure codec (packet-level FEC).

    This is the coder of the paper's §2 in the construction popularised by
    Rizzo [14]: an (n, k) maximum-distance-separable code over GF(2^8),
    obtained by right-multiplying an n x k Vandermonde matrix by the inverse
    of its top k x k block, so that the first k rows form the identity.  The
    k data packets are transmitted verbatim; the h = n - k parity packets
    are linear combinations of them.  A receiver holding ANY k of the n
    packets of an FEC block reconstructs all k data packets.

    Packets of P bytes are striped: each byte position is an independent
    GF(2^8) symbol, so one matrix row application is a multiply-accumulate
    across whole packets (see {!Rmc_gf.Gf.mul_add_into}).

    Complexity: encoding costs O(k * P) field operations per parity packet.
    Decoding is incremental Gaussian elimination: each of the
    l parities that replace a lost data packet is reduced against at most
    k pivots, O(k * (k + P)), and back-substitution rebuilds the l lost
    packets in O(l * k * P) — matching the paper's observation that
    decoding cost is proportional to the number of losses.  Nothing is
    inverted or cached per loss pattern. *)

type t
(** A codec instance for fixed (k, h). Immutable and reusable across blocks;
    safe to share (including across domains). *)

val create : ?field:Rmc_gf.Gf.t -> k:int -> h:int -> unit -> t
(** [create ~k ~h ()] builds a codec with [k] data and up to [h] parity
    packets per block.  Requires [k >= 1], [h >= 0] and
    [k + h <= 2^m - 1] (255 for the default GF(2^8) field).

    Construction (Vandermonde build + systematisation, an O(k^3) matrix
    inversion) is memoized per [(field, k, h)]: repeated calls with the
    same parameters return the {e same} codec instance, so protocol layers
    may call [create] per transfer without paying the inversion again. *)

val k : t -> int
val h : t -> int
val n : t -> int
(** [n = k + h]. *)

val field : t -> Rmc_gf.Gf.t

val generator_row : t -> int -> int array
(** [generator_row codec e] is row [e] of the n x k generator matrix
    (identity for [e < k]). *)

val parity_row : t -> int -> Bytes.t
(** [parity_row codec j] is generator row [k + j] as a fresh row of
    symbols (big-endian for GF(2^16)): the coefficients of parity [j],
    [0 <= j < h]. *)

val encode : t -> Bytes.t array -> Bytes.t array
(** [encode codec data] returns the [h] parity packets for the [k] equal-
    length data packets. The data packets are not copied or modified. *)

val encode_parity : t -> Bytes.t array -> int -> Bytes.t
(** [encode_parity codec data j] produces only parity [j] (0-based,
    [0 <= j < h]) — what protocol NP does when a retransmission round needs
    just a few more parities. *)

val decode : t -> (int * Bytes.t) array -> Bytes.t array
(** [decode codec received] reconstructs the [k] data packets from any [k]
    (or more — extras are ignored) distinct received packets, given as
    [(index, payload)] with index in [0, n): data packets carry their
    position [0..k-1], parity [j] carries [k + j].

    {b Aliasing contract.}  For every data index that was received, the
    returned array holds the {e caller's own payload by reference} — byte
    [i] of slot [j] is physically the same mutable storage the caller
    passed in, never a copy.  Only missing slots are freshly allocated and
    computed.  Consequently: (a) no-loss decodes are zero-copy and cost no
    byte work at all; (b) mutating a returned present payload mutates the
    caller's buffer and vice versa; (c) received payloads are never written
    to by [decode].  The same contract holds for {!decode_data_loss}.

    Data packets are fed to the elimination decoder first, then parities
    in the given order until the block is complete; extras are ignored.

    @raise Invalid_argument on fewer than [k] packets, duplicate or
    out-of-range indices, or unequal payload lengths. *)

val decode_data_loss : t -> data:Bytes.t option array -> parity:(int * Bytes.t) list -> Bytes.t array
(** Convenience wrapper over {!decode} for the common receiver layout: an
    array of [k] optional data packets ([None] = lost) plus a list of
    received parities. *)

val is_mds_subset : t -> int array -> bool
(** [is_mds_subset codec indices] checks that the given [k] packet indices
    suffice to decode (always true for this systematic-Vandermonde
    construction; exposed for tests). *)
