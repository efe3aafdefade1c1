(** Random linear network codec (dense RLNC over GF(2^8)).

    Repair packet [j] of a [k]-block is a dense random combination of
    the data packets: [k] uniform GF(256) coefficients re-derived by
    both sides from a splitmix64 stream seeded by [(k, j)] — the wire
    carries only the packet index, exactly like the block codecs.
    Rateless: the repair budget is bounded by the 16-bit wire index
    space, not by a codeword length, so [k + h] may far exceed 255.

    This module is the code's coefficient-row source and its model;
    {!Codec} selects it with [`Rlnc], and {!Fec_block} encodes with the
    block codecs' encoder loop and decodes with their elimination
    decoder ({!Codec_core.Elimination}).  A data packet received
    verbatim is the unit pivot of its own column, kept by reference;
    only repair packets are copied and eliminated, so a decode costs
    O(l k P) for l losses, the same price as RSE.  Any [k]
    {e innovative} packets decode; the probability that [n] random
    repair packets fail to reach full rank is Tsimbalo et al.'s
    rank-deficiency form [1 - prod_{i=0}^{k-1} (1 - q^(i-n))], exposed
    as {!decode_failure_probability} and validated empirically in the
    test suite.

    Unlike the MDS block codecs this code is {e probabilistically} MDS:
    a repair packet is non-innovative with probability about [q^(rank-k)]
    ({!innovation_probability}), which the coded-repair simulation tier
    draws against instead of moving bytes. *)

val max_repair : k:int -> int
(** [0xFFFF - k]: repair [j] travels as wire index [k + j]. *)

val check_block : k:int -> h:int -> unit
(** @raise Invalid_argument unless [k >= 1] and [0 <= h <= max_repair ~k]. *)

val coefficients : k:int -> j:int -> Bytes.t
(** The coefficient row of repair packet [j] over a [k]-block, one
    GF(256) byte per data packet, freshly allocated — the deterministic
    derivation both encoder and decoder use.  Never all-zero (such draws
    are re-salted). *)

val innovation_probability : k:int -> rank:int -> float
(** [1 - q^(rank - k)] below full rank, [0] at it. *)

val decode_failure_probability : k:int -> received:int -> float
(** Tsimbalo's rank-deficiency form: the probability that [received]
    repair packets fail to decode a [k]-block none of whose data arrived
    ([1] below [k]). *)
