(** Receiver populations for the analytical models.

    §3 assumes R homogeneous receivers with loss probability p; §3.3 has
    classes of receivers with different loss probabilities (e.g. 1% of the
    population behind a 25%-loss router).  Representing the population as
    (loss probability, count) classes keeps the hetero product forms
    O(#classes) instead of O(R). *)

type t
(** A population: classes of receivers with per-class loss probability. *)

val homogeneous : p:float -> count:int -> t
(** [count] receivers each losing packets independently w.p. [p]. *)

val classes : (float * int) list -> t
(** Explicit (loss probability, count) classes. Counts must be >= 0, at
    least one positive; probabilities in [0, 1). *)

val two_class : p_low:float -> p_high:float -> high_fraction:float -> count:int -> t
(** The paper's §3.3 population: [round (high_fraction * count)] receivers
    at [p_high], the rest at [p_low].  [high_fraction] in [0, 1]. *)

val size : t -> int
val to_classes : t -> (float * int) list
val max_p : t -> float

val group_cdf : t -> (float -> int -> float) -> int -> float
(** [group_cdf pop cdf m = prod_r cdf p_r m]: the CDF of the group maximum
    of independent per-receiver counts whose CDF at loss probability [p]
    is [cdf p].  [cdf p] is applied once per class, so a class may keep a
    table grown across successive [m]; the product is
    [exp (sum count * log c)] in class order, 0 at the first class at 0.
    @raise Invalid_argument if a per-receiver value lies outside [0, 1]. *)

val expected_max : t -> (float -> int -> float) -> float
(** [E[max_r X_r] = sum_{m>=0} (1 - group_cdf pop cdf m)]: every E[M] and
    E[T] of the analysis is one per-receiver CDF handed to this function.
    @raise Rmc_numerics.Series.Did_not_converge for a loss probability so
    close to 1 that the sum outruns the series' term cap. *)
