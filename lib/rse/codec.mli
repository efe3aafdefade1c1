(** The codec registry: every wire-selectable erasure code as one value
    over GF(2^8).

    A [kind] travels in profiles, machine configs, capture metadata and
    CLI flags.  Every code here is linear: repair packet [j] of a
    [k]-block is [sum_c row.(c) * data.(c)] for a coefficient row both
    ends derive from [(k, j)] alone, so the wire carries only the packet
    index.  A codec is therefore just its row source ({!repair_rows})
    and its loss/rank model; {!Fec_block} encodes with the one loop
    {!Codec_core.combine} and decodes with the one elimination decoder
    {!Codec_core.Elimination}.

    - [`Rse] — systematised-Vandermonde MDS block code ({!Rse}); the
      paper's coder and the default everywhere.
    - [`Cauchy] — Cauchy-matrix MDS block code ({!Cauchy}); identical
      guarantees, different parity values.  Neither block code pays an
      O(k^3) systematisation: both build their rows in closed form.
    - [`Rlnc] — dense random linear codec ({!Rlnc}); rateless,
      probabilistically MDS with Tsimbalo's rank-deficiency bound as
      its failure model.

    Whether a kind is rateless is [Profile.codec_is_rateless]. *)

type kind = [ `Rse | `Cauchy | `Rlnc ]
(** A polymorphic variant on purpose: the user-facing [Profile] (which
    cannot depend on this library) declares the same row and the two
    unify structurally. *)

type t = kind
(** A codec is its kind: every operation dispatches on it. *)

val all : kind list
(** The wire-selectable kinds, in presentation order. *)

val of_kind : kind -> t

val label : t -> string
(** ["Rse"], ["Cauchy"] or ["Rlnc"]: the prefix of the decoder's error
    messages. *)

val max_repair : t -> k:int -> int
(** Largest valid repair budget [h] for a block of [k] data packets:
    [255 - k] codeword positions for the GF(2^8) block codes, the 16-bit
    wire index bound [0xFFFF - k] for RLNC. *)

val innovation_probability : t -> k:int -> rank:int -> float
(** Model hook: the probability that one more received repair packet
    advances a decoder already holding [rank] innovative packets of a
    [k]-block.  [1.0] for the MDS block codes; [1 - q^(rank - k)] for
    dense RLNC over GF(q).  The abstract simulation tier draws against
    this instead of moving bytes. *)

val decode_failure_probability : t -> k:int -> received:int -> float
(** Model hook: probability that [received] repair packets fail to
    decode a [k]-block none of whose data arrived.  [0] for the MDS codes
    once [received >= k]; Tsimbalo's rank-deficiency bound
    [1 - prod_{i=0}^{k-1} (1 - q^(i - received))] for RLNC (exact for
    uniform random matrices). *)

val repair_rows : t -> k:int -> h:int -> int -> Bytes.t
(** [repair_rows t ~k ~h] checks the block and returns its row source:
    applied to [j] ([0 <= j < h]) it gives a fresh, owned row of the [k]
    GF(2^8) coefficients of repair [j] — a generator parity row for
    [`Rse] and [`Cauchy] (built once per [(k, h)] by the construction
    memo), {!Rlnc.coefficients} for [`Rlnc].
    @raise Invalid_argument if [(k, h)] is out of range for the codec,
    with the codec's own message (["Rse.create: ..."], ...). *)
