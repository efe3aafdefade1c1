(** Multicore work pool: coarse task sharding across OCaml 5 domains.

    {!map} shards independent tasks (simulation cells, sweep grid points)
    across a persistent set of worker domains with chunked dynamic
    scheduling, and gathers results positionally, so parallel output is
    identical to a sequential run of the same tasks.  The codecs do not
    use it: each codes whole packets on the caller's domain. *)

type pool
(** A persistent set of worker domains.  Its workers are spawned when the
    pool is made and live, parked on a condition variable between
    batches, until the end of the process.  A pool serialises batches
    internally, so sharing one pool between threads is safe — concurrent
    calls simply queue. *)

val pool_sized : int -> pool
(** [pool_sized jobs] is a process-wide pool of total parallelism
    [jobs] (clamped to >= 1; 1 spawns no workers and runs everything on
    the caller), created on first use and memoized by size: repeated
    calls with the same [jobs] return the same pool, so sweep entry
    points taking [~jobs] never strand worker domains.  The sweep engine
    ({!Rmc_analysis.Sweep.run_cells}, [--jobs] on the benches and the
    CLI) draws its pools from here. *)

val domain_count : pool -> int
(** Total parallelism of the pool, including the calling domain. *)

val map : pool:pool -> int -> (int -> 'a) -> 'a array
(** [map ~pool n f] is [Array.init n f] with the applications sharded
    across [pool], the caller claiming work alongside the workers.
    Indices are handed out in chunks of consecutive tasks, ~4 chunks per
    domain — dynamic scheduling, so a slow cell does not stall the grid.  Results are
    gathered positionally: the output array is the same whatever the
    schedule.  For coarse independent jobs — simulation replications,
    sweep cells — not byte work; the jobs must be independent (each
    should own its RNG).  Runs inline on a single-domain pool.  If any
    application raises, the batch drains and the first exception is
    re-raised on the calling domain. *)
