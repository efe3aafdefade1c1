(** Shared machinery of the systematic block codecs ({!Rse}, {!Rse_poly},
    {!Cauchy}): given an [n x k] generator whose top [k x k] block is the
    identity, encoding is a matrix-vector product over whole packets and
    decoding solves the [k x k] system formed by the generator rows of any
    [k] received packets.

    Internal module — each public codec wraps it with its own generator
    construction and error-message prefix.  The codec value is opaque
    here: its decode-solution cache, recycled scratch buffers and the
    process-wide construction memo are implementation details (all
    domain-safe), deliberately kept out of the interface so they can
    evolve without touching the codecs. *)

module Gf = Rmc_gf.Gf
module Gmatrix = Rmc_matrix.Gmatrix

type t
(** A systematic block codec over a fixed generator.  Immutable from the
    caller's perspective; all internal mutation (the per-loss-pattern
    inverse cache, scratch recycling) is domain-safe, so one instance may
    be shared freely across domains and sessions. *)

val make : label:string -> field:Gf.t -> k:int -> h:int -> generator:Gmatrix.t -> t
(** Wrap an [(k+h) x k] generator whose top block is the identity.
    [label] prefixes every error message ("Rse", "Cauchy", ...). *)

val check_dimensions : label:string -> field:Gf.t -> k:int -> h:int -> unit
(** @raise Invalid_argument if [k < 1], [h < 0], or [k + h] exceeds the
    [2^m - 1] codeword positions of [field]. *)

val memo_create : label:string -> field:Gf.t -> k:int -> h:int -> (unit -> t) -> t
(** [memo_create ~label ~field ~k ~h build] returns the process-wide
    shared instance for [(label, field, k, h)], calling [build] only on
    first use.  Building a codec inverts a [k x k] system to systematise
    the generator — protocol layers used to pay that on every transfer;
    with the memo, N concurrent sessions with the same geometry share
    one codec (and its decode-solution cache). *)

(** {1 Accessors} *)

val label : t -> string
val field : t -> Gf.t
val k : t -> int
val h : t -> int

val n : t -> int
(** [k + h], the codeword length. *)

val generator_row : t -> int -> int array
(** Row [e] of the generator, [0 <= e < n]. *)

(** {1 Encoding} *)

val encode_parity : t -> Bytes.t array -> int -> Bytes.t
(** [encode_parity t data j] computes parity packet [j] ([0 <= j < h])
    from the [k] equal-length data packets. *)

val encode : t -> Bytes.t array -> Bytes.t array
(** All [h] parity packets. *)

(** {1 Decoding} *)

val decode : t -> (int * Bytes.t) array -> Bytes.t array
(** Select [k] of the received [(index, payload)] pairs (data packets
    preferred — their rows are unit vectors), solve the system (memoized
    per loss pattern), and rebuild the missing data packets.  Present
    data packets are returned by reference.
    @raise Invalid_argument on fewer than [k] packets, out-of-range or
    duplicate indices, or unequal payload lengths. *)

val decode_data_loss : t -> data:Bytes.t option array -> parity:(int * Bytes.t) list -> Bytes.t array
(** Convenience wrapper: [data] has one slot per data index ([None] =
    lost), [parity] lists received parity packets by parity index. *)

val is_mds_subset : t -> int array -> bool
(** Whether the [k] given codeword indices form an invertible system. *)

(** {1 Codec seam}

    Adapter lifting any block codec built on this core into the
    {!Codec_intf.CODEC} seam: the encoder serves parity rows of one
    block, the decoder is slot bookkeeping in front of {!decode}.  MDS
    makes every unseen index innovative, so the model hooks are trivial
    ([innovation_probability] is 1, decode fails iff fewer than [k]
    packets arrived). *)

module Block_codec (_ : sig
  val kind : Codec_intf.kind
  val label : string
  val create : k:int -> h:int -> t
end) : Codec_intf.CODEC
