(** Random-variate samplers beyond the primitives in {!Rng}.

    The Monte-Carlo simulations of Figures 11-16 draw, per multicast
    transmission, the *number* of receivers (or tree nodes) that lose the
    packet — a binomial variate with n up to 10^6, the population the
    aggregate tier thins per packet — and then the identity of the losers —
    a uniform sample without replacement.  Both are provided here with cost
    independent of n (amortised O(np), O(1), or O(log n) beta splits above
    2^16).

    Every sampler consumes the same draws, in the same order, for a given
    stream: [test/test_sampler.ml] pins one stream per binomial regime. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** Exact Binomial(n, p) sampling.  Strategy: direct Bernoulli loop for tiny
    [n]; geometric skip-sampling when [n*min(p,1-p)] is small; Hörmann's BTRS
    transformed-rejection in the central regime; beta-order-statistic
    splitting (each level conditions on a Beta-distributed latent uniform and
    exactly halves [n]) above [n = 2^16], where the aggregate simulation tier
    calls with [n] up to 10^6.  Always exact, never a normal
    approximation. *)

val distinct_ints : Rng.t -> n:int -> k:int -> int array
(** [distinct_ints rng ~n ~k] draws [k] distinct integers uniformly from
    [0, n-1] (Floyd's algorithm, O(k) expected).  Order is not uniform.
    Requires [0 <= k <= n]. *)

val subset_bernoulli : Rng.t -> n:int -> p:float -> int array
(** The set [{ i in [0,n-1] | coin(p) }] drawn by sampling its size
    binomially and then its members uniformly — equivalent in distribution
    to flipping [n] coins, but in O(np) instead of O(n). Sorted output. *)

val categorical : Rng.t -> weights:float array -> int
(** Index drawn proportionally to [weights] (linear scan; intended for small
    support such as choosing among scenario mixes). *)
