(** Summation of the infinite series appearing in the paper's expectations.

    Every expectation in the paper has the form [E[X] = sum_{i>=0} P(X > i)]
    with a survival function that eventually decays geometrically; these
    helpers sum such series to a relative tolerance of 1e-12 (far below
    the 2-3 significant digits visible on the paper's plots) with a hard
    cap on the number of terms. *)

exception Did_not_converge of { terms : int; partial : float }

val sum_survival : ?max_terms:int -> (int -> float) -> float
(** [sum_survival s] is [sum_{i>=0} s i] for a non-negative [s] decreasing to
    zero.  Stops once a term falls below [1e-12 * (1 + partial_sum)] (the
    geometric decay of the tails makes the truncation error the same order as
    the last term).
    @raise Did_not_converge if [max_terms] (default 10_000_000, a safety
    cap reached only on non-decaying terms) is reached first. *)

val expectation_from_survival : ?max_terms:int -> (int -> float) -> float
(** [expectation_from_survival s] is [E[X] = sum_{i>=0} P(X > i)] where
    [s i = P(X > i)]; alias of {!sum_survival} with the probabilistic
    reading made explicit at call sites. *)
