(** Systematic Reed-Solomon erasure code (packet-level FEC): the
    generator of the paper's §2 coder.

    The construction is the one popularised by Rizzo [14]: an (n, k)
    maximum-distance-separable code over GF(2^8), obtained by
    right-multiplying an n x k Vandermonde matrix by the inverse of its
    top k x k block, so that the first k rows form the identity.  The k
    data packets are transmitted verbatim; the h = n - k parity packets
    are linear combinations of them, and ANY k of the n packets of an
    FEC block reconstruct all k data packets.

    No matrix is built or inverted: row [k + j] of that product is the
    Lagrange basis of the data points [alpha^0 .. alpha^(k-1)] evaluated
    at [alpha^(k+j)], so each coefficient has a closed form and a code
    costs O(k^2 + hk) field operations.

    This module only builds the generator.  {!Fec_block} over [`Rse]
    ({!Codec}) encodes a block with {!Codec_core.combine} and decodes it
    with the incremental elimination of {!Codec_core.Elimination}:
    O(k * P) field operations per parity packet of P bytes, and a decode
    whose cost is proportional to the losses, as the paper observes.
    Nothing is inverted or cached per loss pattern. *)

type t
(** The parity rows of one (k, h) code.  Immutable and safe to share,
    including across domains. *)

val create : ?field:Rmc_gf.Gf.t -> k:int -> h:int -> unit -> t
(** [create ~k ~h ()] builds a code with [k] data and up to [h] parity
    packets per block.  Requires [k >= 1], [h >= 0] and
    [k + h <= 2^m - 1] (255 for the default GF(2^8) field; [~field:(Gf.create
    16)] lifts it to 65,535).

    Construction is memoized per [(field, k, h)]: repeated calls with
    the same parameters return the {e same} instance, so protocol layers
    may call [create] per transfer and share one set of rows. *)

val parity_row : t -> int -> Bytes.t
(** [parity_row codec j] is generator row [k + j] as a fresh row of
    symbols (big-endian for GF(2^16)): the coefficients of parity [j],
    [0 <= j < h]. *)
