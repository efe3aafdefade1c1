(** The codec registry: every {!Codec_intf.CODEC} behind one
    first-class value.

    {!Codec_intf} defines the seam (module types, capability flags, the
    loss/rank model hooks); this module is how the rest of the system
    names and selects an implementation — a [kind] travels in profiles,
    machine configs, capture metadata and CLI flags, and {!of_kind}
    resolves it to the packed module that {!Fec_block} unpacks.

    The four wire-selectable codecs:

    - [`Rse] — systematised-Vandermonde MDS block code ({!Rse}); the
      paper's coder and the default everywhere.
    - [`Cauchy] — Cauchy-matrix MDS block code ({!Cauchy}); identical
      guarantees, no O(k^3) systematisation at construction.
    - [`Rlnc] — dense random linear codec ({!Rlnc}); rateless,
      probabilistically MDS with Tsimbalo's rank-deficiency bound as
      its failure model.
    - [`Lt] — Luby-transform fountain ({!Lt}); rateless, XOR-only
      peeling decode, small reception overhead. *)

type kind = Codec_intf.kind
type caps = Codec_intf.caps = { systematic : bool; rateless : bool }

module type ENCODER = Codec_intf.ENCODER
module type DECODER = Codec_intf.DECODER
module type CODEC = Codec_intf.CODEC

type t = (module Codec_intf.CODEC)
(** A codec as a first-class value. *)

val all : kind list
(** The wire-selectable kinds, in presentation order. *)

val of_kind : kind -> t

(** {1 Unpacked accessors} *)

val kind : t -> kind
val label : t -> string
val caps : t -> caps
val max_repair : t -> k:int -> int
val innovation_probability : t -> k:int -> rank:int -> float
val decode_failure_probability : t -> k:int -> received:int -> float
