(** Arithmetic in the Galois fields GF(2^m), 2 <= m <= 16.

    The Reed-Solomon erasure code of the paper (§2, after McAuley and Rizzo)
    works on m-bit symbols; packets longer than one symbol are striped into
    S = P/m parallel codewords.  The paper (and Rizzo's widely used
    implementation) uses m = 8, which this module specialises with
    precomputed multiplication tables; other field sizes are supported
    through log/antilog tables.

    Field elements are represented as [int] in [0, 2^m - 1]: the bits are the
    coefficients of a polynomial over GF(2), reduced modulo a fixed primitive
    polynomial.  Addition is XOR; multiplication uses discrete-log tables
    built from the primitive element alpha = x (= 2). *)

type t
(** A field descriptor GF(2^m): immutable tables plus parameters, shared
    freely across domains. *)

val create : int -> t
(** [create m] builds GF(2^m) using the standard primitive polynomial for
    that width (for m = 8: 0x11D, x^8+x^4+x^3+x^2+1, the polynomial used by
    Rizzo's coder). Requires [2 <= m <= 16]. Descriptors are cached, so
    repeated calls are cheap. *)

val gf256 : t
(** The workhorse field GF(2^8). *)

val m : t -> int
(** Symbol width in bits. *)

val size : t -> int
(** Number of field elements, [2^m]. *)

val zero : int
val one : int

val add : int -> int -> int
(** Field addition = XOR = field subtraction; characteristic 2. *)

val sub : int -> int -> int

val mul : t -> int -> int -> int
(** Field multiplication. *)

val div : t -> int -> int -> int
(** Field division. @raise Division_by_zero on zero divisor. *)

val inv : t -> int -> int
(** Multiplicative inverse. @raise Division_by_zero on zero. *)

val exp : t -> int -> int
(** [exp f i] is alpha^i, defined for any integer i (reduced mod 2^m - 1). *)

val log : t -> int -> int
(** Discrete log base alpha, in [0, 2^m - 2].
    @raise Invalid_argument on zero. *)

val pow : t -> int -> int -> int
(** [pow f x e] is x^e for e >= 0, with [pow f 0 0 = 1]. *)

val valid : t -> int -> bool
(** Whether an int is a representation of a field element. *)

(** {1 Byte-vector kernels (GF(2^8) only)}

    These are the inner loops of encoding and decoding: operating on whole
    packets at once.  They require the {!gf256} field and 8-bit symbols,
    and coefficients in [\[0, 255\]].

    One C kernel sits behind every entry point, with three paths.  The
    [gfni] path treats multiplication by a constant as what it is, a
    linear map over GF(2): an 8x8 bit matrix, applied to 64 bytes at once
    by one GFNI [GF2P8AFFINEQB] on an AVX-512 vector.  The matrices are
    built from this field's product table, so the instruction's own
    polynomial (0x11B) does not matter.  The [ssse3] path uses the
    split-nibble technique of Plank, Greenan and Miller ("Screaming Fast
    Galois Field Arithmetic Using Intel SIMD Instructions", FAST 2013):
    [c * x = c * (x land 0x0f) xor c * (x land 0xf0)], each half a
    16-entry table lookup that one [pshufb] does for 16 bytes at once; it
    also finishes the 16-byte blocks after the last 64-byte vector of the
    [gfni] path.  A portable byte-table loop finishes the last few bytes
    and is the whole kernel on hosts without SSSE3 (any non-x86-64 host).
    The path is picked once, at start-up, from what the CPU and the OS
    support; {!kernel} names it.  There is no knob: a host runs its best
    path.  All tables derive from the one product table of {!gf256}.  The
    [*_scalar] entry points below are the OCaml byte-at-a-time reference,
    for differential tests and baseline benchmarks. *)

val kernel : string
(** The kernel path this process runs: ["gfni"] (GFNI with AVX-512BW),
    ["ssse3"] or ["portable"].  Read-only, for reports. *)

val mul_add_into : t -> dst:Bytes.t -> src:Bytes.t -> coeff:int -> unit
(** [mul_add_into f ~dst ~src ~coeff] computes
    [dst.(i) <- dst.(i) xor (coeff * src.(i))] for every byte — the
    multiply-accumulate at the heart of matrix-vector coding.
    Requires [Bytes.length dst = Bytes.length src] and an 8-bit field. *)

val mul_into : t -> dst:Bytes.t -> src:Bytes.t -> coeff:int -> unit
(** [dst.(i) <- coeff * src.(i)]; same requirements.  [dst] may be [src]
    (in-place scaling). *)

val xor_into : dst:Bytes.t -> src:Bytes.t -> unit
(** [dst.(i) <- dst.(i) xor src.(i)]; the [coeff = 1] special case, also the
    whole codec for a single-parity (h = 1) code. *)

(** {2 Scalar reference kernels}

    Byte-at-a-time OCaml loops with identical semantics to the C kernel
    above.  Exported so differential tests can compare every kernel path
    against them and so benchmarks can measure the seed baseline. *)

val xor_into_scalar : dst:Bytes.t -> src:Bytes.t -> unit
val mul_add_into_scalar : t -> dst:Bytes.t -> src:Bytes.t -> coeff:int -> unit
val mul_into_scalar : t -> dst:Bytes.t -> src:Bytes.t -> coeff:int -> unit

(** {2 Per-path access, for tests} *)

module For_testing : sig
  val paths : string list
  (** The kernel paths this host can run, best last: a prefix of
      [["portable"; "ssse3"; "gfni"]] that always starts with
      ["portable"]. *)

  val mul_add_into_range :
    path:string -> t -> dst:Bytes.t -> src:Bytes.t -> coeff:int -> pos:int -> len:int -> unit
  (** {!mul_add_into} over the window [\[pos, pos + len)] of both
      vectors, on the named path.  [dst] and [src] must still have equal
      total lengths, and the window must lie within them.
      @raise Invalid_argument if [path] is not in [paths]. *)

  val mul_into_range :
    path:string -> t -> dst:Bytes.t -> src:Bytes.t -> coeff:int -> pos:int -> len:int -> unit
  (** {!mul_into} over the window [\[pos, pos + len)], on the named
      path; [dst] and [src] may be the same vector. *)
end

(** {1 Symbol-generic kernels}

    The same multiply-accumulate for any supported symbol width: m = 8
    uses the byte kernels above; m = 16 treats packets as big-endian
    16-bit symbols (packet length must be even).  These enable FEC blocks
    with up to 2^16 - 1 packets. *)

val symbol_bytes : t -> int
(** Bytes per symbol: 1 for m = 8, 2 for m = 16.
    @raise Invalid_argument for other widths (no vector kernels). *)

val mul_add_into_symbols : t -> dst:Bytes.t -> src:Bytes.t -> coeff:int -> unit
(** [dst <- dst + coeff * src] over the field's symbols.  Lengths must
    match and be multiples of {!symbol_bytes}. *)
