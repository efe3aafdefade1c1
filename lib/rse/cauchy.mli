(** Systematic Cauchy-matrix erasure code.

    The classical alternative to the systematised Vandermonde of {!Rse},
    introduced for packet FEC by Blömer et al. and popular in later
    erasure-coding systems: parity row i has entries
    [1 / (x_i + y_j)] over GF(2^m) with all [x_i], [y_j] distinct.

    Stacked under an identity block it is MDS {e by construction} — every
    square submatrix of a Cauchy matrix is nonsingular — and, like {!Rse},
    each entry has a closed form, so no O(k^3) systematisation is paid at
    construction time.

    Same guarantee (any k of n packets decode) as {!Rse}, and like it
    only a generator: {!Fec_block} over [`Cauchy] encodes and decodes.
    The parity {e values} differ between constructions, so encoder and
    decoder must agree on the construction. *)

type t

val create : ?field:Rmc_gf.Gf.t -> k:int -> h:int -> unit -> t
(** Requires [k >= 1], [h >= 0], [k + h <= 2^m - 1] (the Cauchy points
    need k + h distinct field elements, which this bound guarantees). *)

val parity_row : t -> int -> Bytes.t
(** Generator row [k + j] as a fresh row of symbols, as {!Rse.parity_row}. *)
