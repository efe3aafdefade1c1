(** Random linear network codec (dense RLNC over GF(2^8)).

    Repair packet [j] of a [k]-block is a dense random combination of
    the data packets: [k] uniform GF(256) coefficients re-derived by
    both sides from a splitmix64 stream seeded by [(k, j)] — the wire
    carries only the packet index, exactly like the block codecs.
    Rateless: the repair budget is bounded by the 16-bit wire index
    space, not by a codeword length, so [k + h] may far exceed 255.

    The decoder is the block codecs' elimination decoder
    ({!Codec_core.Elimination}) with rank tracking: each arriving packet
    either becomes a new pivot ([add] returns [true]) or is linearly
    dependent and rejected.  A data packet received verbatim is the
    unit pivot of its own column, kept by reference with no coefficient
    row — it costs a receiver what it costs under RSE or LT; only repair
    packets are copied and eliminated.  Any [k] {e innovative} packets
    decode; the probability that [n] random repair packets fail to reach
    full rank is Tsimbalo et al.'s rank-deficiency form
    [1 - prod_{i=0}^{k-1} (1 - q^(i-n))], exposed as
    {!decode_failure_probability} and validated empirically in the test
    suite.  A repair packet costs O(k) kernel calls over its coefficient
    row and payload, and the decode back-substitutes through the repair
    pivots only: O(l k P) for l losses, the same decoder and the same
    price as RSE.

    Unlike the MDS block codecs this code is {e probabilistically} MDS:
    a repair packet is non-innovative with probability about [q^(rank-k)]
    ({!innovation_probability}), which the coded-repair simulation tier
    draws against instead of moving bytes. *)

include Codec_intf.CODEC

val coefficients : k:int -> j:int -> Bytes.t
(** The coefficient row of repair packet [j] over a [k]-block, one
    GF(256) byte per data packet —
    the deterministic derivation both encoder and decoder use.  Never
    all-zero (such draws are re-salted).  Exposed for tests and for the
    rank-deficiency experiment. *)
