(** Multicore work pool: coarse task sharding across OCaml 5 domains.

    {!map} and {!map_reduce} shard independent tasks (simulation cells,
    TG batches, sweep grid points) across a persistent set of worker
    domains with chunked dynamic scheduling, and gather results
    positionally, so parallel output is identical to a sequential run
    of the same tasks.  The codecs do not use it: each codes whole
    packets on the caller's domain. *)

type pool
(** A persistent set of worker domains.  Creating a pool spawns its
    workers immediately; they persist (parked on a condition variable)
    until {!shutdown} or the end of the process.  A pool serialises
    batches internally, so sharing one pool between threads is safe —
    concurrent calls simply queue. *)

val create_pool : ?domains:int -> unit -> pool
(** [create_pool ()] sizes the pool to [Domain.recommended_domain_count ()].
    [domains] overrides the total parallelism (including the calling
    domain); values < 1 are clamped to 1, in which case no workers are
    spawned and all work runs on the caller. *)

val default_pool : unit -> pool
(** The process-wide shared pool, created on first use. *)

val pool_sized : int -> pool
(** [pool_sized jobs] is a process-wide pool of total parallelism
    [jobs] (clamped to >= 1), created on first use and memoized by
    size: repeated calls with the same [jobs] return the same pool, so
    sweep entry points taking [~jobs] never strand worker domains.  The
    sweep engine ({!Rmc_analysis.Sweep.run_cells}, [--jobs] on the
    benches and the CLI) draws its pools from here. *)

val shutdown : pool -> unit
(** Stop and join the pool's workers.  Safe to call at most once per
    pool and never concurrently with a running batch; afterwards the
    pool still works but runs every task on the caller.  The memoized
    {!default_pool} / {!pool_sized} pools are normally left to die with
    the process. *)

val domain_count : pool -> int
(** Total parallelism of the pool, including the calling domain. *)

val map : ?pool:pool -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [map n f] is [Array.init n f] with the applications sharded across
    [pool] (default: the shared pool), the caller claiming work
    alongside the workers.  Indices are handed out [chunk] consecutive
    tasks at a time (default: enough chunks for ~4 per domain; [chunk]
    must be >= 1) — dynamic scheduling, so a slow cell does not stall
    the grid.  Results are gathered positionally: the output array is
    the same whatever the schedule.  For coarse independent jobs —
    simulation replications, sweep cells, per-TG batches — not byte
    work; the jobs must be independent (each should own its RNG).  Runs
    inline on a single-domain pool.  If any application raises, the
    batch drains and the first exception is re-raised on the calling
    domain. *)

val map_reduce :
  ?pool:pool -> ?chunk:int -> int -> map:(int -> 'a) -> combine:('b -> 'a -> 'b) ->
  init:'b -> 'b
(** [map_reduce n ~map ~combine ~init] is
    [Array.fold_left combine init (map n ~f:map)]: the [map]
    applications run on the pool exactly as {!map} schedules them, and
    the fold runs on the caller in index order — so [combine] needs no
    associativity and the result is deterministic for any pool size.
    Exceptions propagate as in {!map}. *)
