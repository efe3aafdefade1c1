(** The lossy multicast network seen by the protocol machines.

    One {!transmit} call models one multicast transmission reaching all R
    receivers; the returned {!transmission} tells which receivers lost it.
    Four loss regimes cover every scenario of the paper:

    - {!independent}: spatially and temporally independent Bernoulli loss
      (§3);
    - {!heterogeneous}: independent loss with per-class probabilities
      (§3.3);
    - {!fbt}: spatially correlated loss on a full binary tree (§4.1);
    - {!temporal}: per-receiver temporally correlated (bursty) loss,
      independent across receivers (§4.2).

    Efficiency contract: {!iter_losers} enumerates the losing receivers in
    expected O(R*p) — not O(R) — for the independent, heterogeneous and fbt
    regimes, which is what makes simulating 2^17 receivers cheap.  For the
    temporal regime it is O(R) (the per-receiver chains must all advance);
    the paper's burst-loss figures stop at R = 10^4 for the same reason. *)

type t
type transmission

val independent : Rmc_numerics.Rng.t -> receivers:int -> p:float -> t
val heterogeneous : Rmc_numerics.Rng.t -> classes:(float * int) list -> t

val fbt : Rmc_numerics.Rng.t -> height:int -> p:float -> t
(** Full binary tree with [2^height] receivers and per-node drop probability
    calibrated so each receiver sees end-to-end loss [p]. *)

val temporal :
  Rmc_numerics.Rng.t -> receivers:int -> make:(Rmc_numerics.Rng.t -> Loss.t) -> t
(** One loss process per receiver, built by [make] from a split-off RNG. *)

val receivers : t -> int
val description : t -> string

val transmit : t -> time:float -> transmission
(** Sample the fate of one multicast packet sent at [time].  For the
    temporal regime, successive calls must use non-decreasing times.

    For the independent and heterogeneous regimes, consult each
    transmission either through {!lost} or through {!iter_losers}, and ask
    {!lost} at most once per receiver: the Bernoulli fate is drawn on
    demand (drawing it twice would re-flip the coin).  The fbt and temporal
    regimes are fully consistent under repeated queries. *)

val lost : transmission -> int -> bool
(** Did this receiver lose the packet? *)

val iter_losers : transmission -> (int -> unit) -> unit
(** Call the function exactly once for every receiver that lost the packet. *)
