(** Shared machinery of the linear codecs.  Every repair packet is a
    coefficient row applied to the data: a parity row of an [n x k]
    generator whose top [k x k] block is the identity ({!Rse},
    {!Cauchy}), or {!Rlnc}'s [(k, j)]-derived row.  Encoding is the one
    loop {!combine}; decoding is the one incremental Gaussian
    elimination of {!Elimination}.

    {!Fec_block} is the one way to encode and decode a GF(2^8) block; a
    GF(2^16) block ([Rse.create ~field]) is driven through {!combine}
    and {!Elimination} directly.

    Internal module — each public codec wraps it with its own generator
    construction and error-message prefix.  Nothing is cached per loss
    pattern and nothing is recycled between decodes; the only shared
    state is the process-wide construction memo. *)

module Gf = Rmc_gf.Gf

(** {1 The elimination decoder} *)

module Elimination : sig
  (** Incremental Gaussian elimination over the packets of one block,
      one {!Gf.mul_add_into_symbols} call per (pivot, row) pair on both
      the coefficient row and the payload.  A data packet received
      verbatim is the unit pivot of its column, kept by reference; a
      repair packet is copied and reduced against the pivots, and becomes
      a new pivot iff it is innovative.  A data packet arriving for a
      column a repair pivot holds takes the column over, and the displaced
      row is reduced further.  {!decode} back-substitutes through the
      repair pivots only, so its cost is proportional to the losses. *)

  type t

  val make :
    label:string -> field:Gf.t -> k:int -> h:int -> repair_row:(int -> Bytes.t) -> t
  (** An empty decoder for a [(k, h)] block.  [repair_row j] returns a
      fresh, owned coefficient row of repair [j]: [k] symbols of
      [field], big-endian for GF(2^16).  [label] prefixes every error
      message. *)

  val k : t -> int
  val h : t -> int

  val add : t -> index:int -> Bytes.t -> bool
  (** Record the arrival of packet [index] (data [0..k-1], repair
      [k..k+h-1]).  [true] iff the packet raised the rank; [false] for a
      duplicate, a non-innovative repair and any packet once the decoder
      is complete.  Ownership of the payload passes to the decoder, which
      never mutates it: an accepted data packet is kept by reference
      ({!decode} returns that very buffer in its slot), and a repair
      packet is copied before it is eliminated.
      @raise Invalid_argument on an out-of-range index or a payload
      length unlike the first one. *)

  val received : t -> int
  (** The rank: packets [add] accepted. *)

  val needed : t -> int
  (** [k - received]; [0] iff {!complete}. *)

  val complete : t -> bool

  val has_data : t -> int -> bool
  (** Whether data packet [index < k] arrived verbatim. *)

  val missing_data : t -> int list
  (** Data indices not received verbatim (reconstructible iff
      {!complete}). *)

  val decode : t -> Bytes.t array
  (** All [k] data packets. @raise Failure if [not (complete t)]. *)
end

type t
(** The parity rows of a systematic block codec, whose generator's top
    [k x k] block is the identity.  Immutable, so one instance may be
    shared freely across domains and sessions. *)

val make : field:Gf.t -> int array array -> t
(** [make ~field rows] wraps the [h] parity rows (generator rows [k] to
    [k + h - 1]), each of [k] symbols of [field]. *)

val check_dimensions : label:string -> field:Gf.t -> k:int -> h:int -> unit
(** @raise Invalid_argument if [k < 1], [h < 0], or [k + h] exceeds the
    [2^m - 1] codeword positions of [field].  [label] prefixes the
    message ("Rse", "Cauchy"). *)

val memo_create : label:string -> field:Gf.t -> k:int -> h:int -> (unit -> t) -> t
(** [memo_create ~label ~field ~k ~h build] returns the process-wide
    shared instance for [(label, field, k, h)], calling [build] only on
    first use, so N concurrent sessions (and every transfer) with the
    same geometry share one set of parity rows instead of each
    allocating its own. *)

val parity_row : t -> int -> Bytes.t
(** A fresh, owned symbol row of parity [j] ([0 <= j < h]): generator
    row [k + j], the row source {!Elimination.make} takes. *)

(** {1 Encoding} *)

val combine : Gf.t -> row:Bytes.t -> Bytes.t array -> Bytes.t
(** [combine field ~row data] is the repair [sum_c row.(c) * data.(c)]
    over the equal-length packets [data], freshly allocated: the one
    encoder loop every linear codec shares.  [row] holds
    [Array.length data] symbols of [field] and is only read. *)
