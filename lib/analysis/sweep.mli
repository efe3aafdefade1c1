(** Parameter grids and series for regenerating the paper's figures. *)

val log_spaced_ints : from:int -> upto:int -> per_decade:int -> int list
(** Distinct, sorted, approximately log-spaced integers including both
    endpoints — the receiver-count axis (1 .. 10^6) of most figures. *)

val log_spaced_floats : from:float -> upto:float -> per_decade:int -> float list
(** Log-spaced floats including both endpoints — the loss-probability axis
    of Figure 8. Requires [0 < from <= upto]. *)

val powers_of_two : max_exponent:int -> int list
(** [2^0 .. 2^max_exponent] — the receiver axis of Figures 11/12. *)

val cell_seed : seed:int -> int array -> int
(** [cell_seed ~seed coords] is the independent splitmix64-derived seed
    of the grid cell at integer coordinates [coords]
    ({!Rmc_numerics.Rng.derive_seed}).  Seeds depend only on
    (base seed, coordinates) — never on evaluation order — which is the
    determinism argument for parallel sweeps. *)

val run_cells :
  ?jobs:int ->
  seed:int ->
  ?coords:(int -> 'a -> int array) ->
  f:(seed:int -> 'a -> 'b) ->
  'a array ->
  'b array
(** [run_cells ~jobs ~seed ~f cells] evaluates every grid cell on a
    [jobs]-domain work pool ({!Rmc_rse.Parallel.pool_sized}; default
    [Domain.recommended_domain_count ()]) and returns the results in
    cell order.  Each cell is passed the seed
    [cell_seed ~seed (coords i cell)] (default coordinates: the cell's
    index), so as long as [f] is a pure function of its arguments the
    output array is a pure function of [(cells, seed)]: [jobs = 1] and
    [jobs = N] are byte-identical, cell RNG streams never cross, and a
    failed cell re-raises on the caller after the batch drains. *)

type series = { label : string; points : (float * float) list }

val series : label:string -> xs:'a list -> f:('a -> float * float) -> series

val series_cells :
  ?jobs:int ->
  seed:int ->
  label:string ->
  xs:'a list ->
  f:(seed:int -> 'a -> float * float) ->
  unit ->
  series
(** {!series} with the points evaluated through {!run_cells}: same
    labels, same point order, cells run on [jobs] domains. *)

val to_csv : series list -> string
(** Long-format CSV under the header "series,x,y" (one line per point),
    for plotting. *)

val pp_table : Format.formatter -> series list -> unit
(** Side-by-side text table: one row per x, one column per series (series
    must share their x grid; rows missing from a series print "-"). *)
