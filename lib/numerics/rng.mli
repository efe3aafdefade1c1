(** Deterministic pseudo-random number generation.

    The generator is xoshiro256++ (Blackman & Vigna), seeded through
    splitmix64.  Every stochastic component of the library takes an explicit
    [Rng.t] so that simulations are reproducible and independent streams can
    be split off for parallel or per-receiver use.

    The stream is a determinism contract: a seed names the same sequence of
    draws from every function below, forever.  Replay captures, the golden
    protocol and simulation digests, and the byte-identical [--jobs] sweeps
    all depend on it, and [test/test_rng.ml] pins it with known-answer
    vectors: raw words, and the bits of the [float], [float_pos],
    [bernoulli] and [geometric] draws.  A change to seeding or to any
    draw's arithmetic is a change to every seeded result in the
    repository.

    The four state words are held unboxed, so the draws that return an
    immediate ([int], [bool], [bernoulli], [geometric],
    [binomial_by_trials], [binomial_by_skips], [shuffle_in_place]) allocate
    nothing.  [bits64], [float], [float_pos] and [exponential] box at
    most their result, and only where the call is not inlined: in the
    release build (the workspace default) [float] and [float_pos] inline
    into a caller in another module and allocate nothing there, which
    [test/test_rng.ml] pins.  Under [--profile dev], [-opaque] stops every
    cross-module inlining, so each float they return is boxed. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 63-bit seed (default
    [0x1234_5678]).  Equal seeds give equal streams. *)

val of_int64_seed : int64 -> t
(** Seed from a full 64-bit value. *)

val copy : t -> t
(** Independent copy with identical current state. *)

val split : t -> t
(** [split rng] draws from [rng] to seed a fresh, statistically independent
    generator.  [rng] advances. *)

val derive_seed : int -> int array -> int
(** [derive_seed seed coords] deterministically derives an independent
    seed for the grid cell at integer coordinates [coords] from the base
    [seed], by folding both through splitmix64.  A pure function: sweep
    cells seeded this way are reproducible regardless of evaluation
    order, which is what makes parallel sweeps byte-identical to
    sequential ones.  The result is non-negative and fits [create]'s
    [?seed]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1) with 53-bit resolution. *)

val float_pos : t -> float
(** Uniform float in (0, 1]; never returns 0, safe as [log] argument. *)

val int : t -> int -> int
(** [int rng n] is uniform in [0, n-1]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given rate (mean [1/rate]).
    Requires [rate > 0]. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success in Bernoulli([p]) trials;
    support 0, 1, 2, ...  Requires [0 < p <= 1]. *)

(** The two loops of [Sampler.binomial]'s small regimes live here, where
    each uniform stays unboxed in a register whatever the compiler decides
    at [Sampler]'s call sites: a float returned across a module boundary
    is unboxed only where the call is inlined, a choice made per call
    site, and never under [--profile dev]'s [-opaque]. *)

val binomial_by_trials : t -> n:int -> p:float -> int
(** [binomial_by_trials rng ~n ~p] counts the successes among [n]
    Bernoulli([p]) trials, one uniform each: exactly the draws of [n] calls
    of [bernoulli rng p].  The regime of small [n]. *)

val binomial_by_skips : t -> n:int -> p:float -> int
(** [binomial_by_skips rng ~n ~p] counts the successes among [n]
    Bernoulli([p]) trials by skipping the failures between them: it makes
    exactly the draws of calling [geometric rng ~p] until the skips run
    past [n], but computes [log1p (-p)] once.  Expected cost O(np): the
    regime of small [n p].  Requires [0 < p < 1]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)
