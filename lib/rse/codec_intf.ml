(** The codec seam: the module types every erasure codec implements.

    The paper hardwires one systematic RSE block code; the related work it
    cites opens three more (fountain/LT codes, random linear network
    coding, coded retransmission).  This signature pair is the boundary
    that makes them pluggable: an {!ENCODER} that emits repair packets on
    demand from a fixed window of [k] data packets, and a {!DECODER} that
    accumulates whichever packets arrive and reconstructs the window.

    Everything upstream (the {!Fec_block} bookkeeping, the NP machine, the
    wire format) speaks only in {e packet indices}: index [i < k] is data
    packet [i] sent verbatim, index [k + j] is repair packet [j].  What a
    repair packet {e is} — the [j]-th parity row of an MDS generator, a
    dense random combination, an XOR over a soliton-sampled neighbor set —
    is the codec's business; both sides derive it deterministically from
    [(k, j)], so the wire carries no coefficients.

    A {!CODEC} also exposes a loss/rank {e model hook}
    ({!CODEC.innovation_probability}, {!CODEC.decode_failure_probability})
    so the abstract simulation tiers and the analysis layer can reason
    about a codec without moving bytes — for RLNC this is Tsimbalo et
    al.'s rank-deficiency form, exact for dense random matrices. *)

type kind = [ `Rse | `Cauchy | `Rlnc | `Lt ]
(** The wire-selectable codecs.  A polymorphic variant on purpose: the
    user-facing [Profile] (which cannot depend on this library) declares
    the same row and the two unify structurally. *)

type caps = {
  systematic : bool;
      (** data packets appear verbatim among the transmitted packets *)
  rateless : bool;
      (** repair packets are not bounded by the codeword length; any
          budget [h] the wire index field can carry is valid *)
}

module type ENCODER = sig
  type t

  val create : k:int -> h:int -> Bytes.t array -> t
  (** Bind an encoder to the [k] equal-length data packets of one block,
      with repair budget [h].
      @raise Invalid_argument if [Array.length data <> k], lengths are
      unequal, or [(k, h)] is out of range for the codec. *)

  val k : t -> int
  val h : t -> int

  val repair : t -> int -> Bytes.t
  (** [repair t j] is repair packet [j], [0 <= j < h].  Deterministic:
      the same [(k, j)] always yields the same combination, which is what
      lets the decoder recover the coefficients from the wire index
      alone.  Freshly allocated on every call — callers cache. *)
end

module type DECODER = sig
  type t

  val create : k:int -> h:int -> t
  (** An empty decoder for a [(k, h)] block. *)

  val add : t -> index:int -> Bytes.t -> bool
  (** Record the arrival of packet [index] (data [0..k-1], repair
      [k..k+h-1]).  Returns [true] iff the packet advanced the decoder —
      [false] means it was redundant (a duplicate or non-innovative
      packet for the elimination decoder every linear codec shares, an
      immediately reducible-to-nothing packet for peeling codecs, or any
      packet once the block is complete).  Ownership of [payload] passes
      to the decoder, which never mutates it: every decoder keeps an
      accepted data packet by reference ({!decode} returns that very
      buffer in its slot) and copies a repair packet before eliminating
      it.
      @raise Invalid_argument on an out-of-range index. *)

  val received : t -> int
  (** Packets accepted so far ([add] returned [true]). *)

  val needed : t -> int
  (** The decoder's estimate of how many more packets it must receive —
      what a NAK reports.  [0] iff {!complete}.  For peeling codecs this
      is a lower bound (overhead surfaces as further rounds). *)

  val complete : t -> bool

  val has_data : t -> int -> bool
  (** Whether data packet [index < k] was received verbatim. *)

  val missing_data : t -> int list
  (** Data indices not received verbatim (reconstructible iff
      {!complete}). *)

  val decode : t -> Bytes.t array
  (** All [k] data packets. @raise Failure if [not (complete t)]. *)
end

module type CODEC = sig
  val kind : kind
  val label : string
  val caps : caps

  val max_repair : k:int -> int
  (** Largest valid repair budget [h] for a block of [k] data packets
      ([2^m - 1 - k] codeword positions for GF(2^8) block codes, the
      16-bit wire index bound for rateless codecs). *)

  val innovation_probability : k:int -> rank:int -> float
  (** Model hook: the probability that one more received repair packet
      advances a decoder already holding [rank] innovative packets of a
      [k]-block.  [1.0] for MDS block codes; [1 - q^(rank - k)] for dense
      RLNC over GF(q); the binary-coding proxy for LT.  The abstract
      simulation tier draws against this instead of moving bytes. *)

  val decode_failure_probability : k:int -> received:int -> float
  (** Model hook: probability that [received] repair packets fail to
      decode a [k]-block none of whose data arrived.  [0] for MDS codes
      once [received >= k]; Tsimbalo's rank-deficiency bound
      [1 - prod_{i=0}^{k-1} (1 - q^(i - received))] for RLNC (exact for
      uniform random matrices); the same form at [q = 2] for LT, where it
      is an optimistic proxy (peeling can stall above the rank bound). *)

  module Encoder : ENCODER
  module Decoder : DECODER
end
