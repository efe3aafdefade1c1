(** Minimal real-time event loop for the UDP transport.

    The mirror image of {!Rmc_sim.Engine}: the same cancellable-timer API,
    but driven by the wall clock and [Unix.select] instead of a virtual
    clock.  Single-threaded; callbacks run on the loop.  Intended for the
    loopback NP binding and small tools — not a general-purpose runtime. *)

type t

val create : ?metrics:Rmc_obs.Metrics.t -> ?max_fds:int -> unit -> t
(** With [metrics], the loop counts [reactor.timer_fires],
    [reactor.timers_cancelled] and [reactor.heap_purges].

    [max_fds] (default 1024 = FD_SETSIZE) caps how many descriptors may
    be registered at once: a [select]-based loop breaks silently past
    FD_SETSIZE, so {!on_readable} fails loudly at the cap instead — runs
    that need more sockets shard across several reactors.
    @raise Invalid_argument if [max_fds] is outside 1..1024. *)

val now : t -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

type timer

val after : t -> float -> (unit -> unit) -> timer
(** Schedule a callback [delay] seconds from now (clamped to >= 0). *)

val cancel : timer -> unit
(** Cancelled timers never fire and are dropped from the event heap
    eagerly: any cancelled entry reaching the top of the heap is popped
    immediately, and when cancelled entries outnumber live ones (beyond a
    small threshold) the heap is rebuilt without them — so a long-lived
    session that arms and cancels timers per TG holds O(live) heap
    entries, not O(ever armed). *)

val cancelled : timer -> bool

val pending_timers : t -> int
(** Entries currently in the timer heap, cancelled stragglers included —
    the probe the heap-leak regression test watches. *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register a callback fired whenever the descriptor is readable.  One
    callback per descriptor; registering again replaces it.
    @raise Failure when registering a new descriptor would exceed the
    loop's [max_fds] cap. *)

val remove : t -> Unix.file_descr -> unit

val stop : t -> unit
(** Make {!run} return after the current dispatch. *)

val run : ?deadline:float -> t -> unit
(** Dispatch timers and descriptor events until {!stop} is called, the
    wall-clock [deadline] (absolute, seconds) passes, or there is nothing
    left to wait for (no timers and no descriptors).

    Each pass fires at most one due timer (the earliest), then polls the
    descriptors — without blocking when another timer is already due —
    and runs the readable callbacks.  Due timers still fire in time
    order, but a timer that re-arms itself at zero delay cannot starve
    the sockets. *)
