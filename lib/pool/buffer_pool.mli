(** Fixed-size byte-buffer pool for the packet datapath, owned by one
    domain.

    The wire drivers serialize every outgoing datagram into a scratch
    buffer, hand it to the kernel, and are done with it before the next
    event fires — a textbook checkout/release workload.  Allocating a
    fresh [Bytes.t] per datagram instead makes the minor heap the
    per-packet bottleneck the paper's §5 end-host model warns about, so
    the drivers draw from a pool of [capacity] buffers of [buf_size]
    bytes each and return them as soon as the datagram has left.  Once
    warm, a checkout/release pair allocates nothing.

    A pool belongs to the domain that called {!create}.  Each UDP shard
    builds its own pool on its own domain, so nothing is shared and the
    free list is a plain stack.  {!checkout} and {!release} from any other
    domain raise [Invalid_argument "Buffer_pool.checkout: called from a
    domain that does not own this pool"] (or [Buffer_pool.release: ...]):
    the one-owner rule is checked, not assumed.

    Discipline is enforced too:

    - {!release} rejects buffers of the wrong size (they cannot have come
      from this pool) and buffers that are already free (a double release
      would hand the same buffer to two owners).
    - {!checkout} never blocks and never fails: when every pooled buffer
      is out, it allocates a fresh one and counts it in
      {!overflow_allocs} — a non-zero value means the pool is undersized,
      visible in metrics rather than as a stall or a crash.
    - {!assert_quiescent} is the leak detector: drivers call it at
      teardown, when every checkout must have been released.

    Buffers come back with whatever bytes the previous owner wrote; users
    must treat a checkout as uninitialized. *)

type t

val create : ?capacity:int -> buf_size:int -> unit -> t
(** [create ~buf_size ()] makes a pool of [capacity] (default 16) buffers
    of [buf_size] bytes, owned by the calling domain.  Buffers
    materialize lazily on first checkout.
    @raise Invalid_argument if [buf_size < 1] or [capacity < 1]. *)

val buf_size : t -> int

val capacity : t -> int

val checkout : t -> Bytes.t
(** Borrow a buffer of {!buf_size} bytes with arbitrary contents.  Falls
    back to a fresh allocation (counted in {!overflow_allocs}) when the
    pool is empty-handed.
    @raise Invalid_argument off the owning domain. *)

val release : t -> Bytes.t -> unit
(** Return a borrowed buffer.  Overflow buffers join the free list when
    there is room and are dropped otherwise.
    @raise Invalid_argument off the owning domain, on a wrong-sized
    buffer, a double release, or a release with nothing checked out. *)

val with_buf : t -> (Bytes.t -> 'a) -> 'a
(** [with_buf t f] checks a buffer out, applies [f], and releases it even
    if [f] raises. *)

val outstanding : t -> int
(** Buffers currently checked out (0 for a quiescent pool). *)

val peak_outstanding : t -> int
(** High-water mark of {!outstanding} over the pool's lifetime — the
    capacity the workload actually needed. *)

val total_checkouts : t -> int

val overflow_allocs : t -> int
(** Checkouts served by a fresh allocation because all [capacity] pooled
    buffers were out. *)

val free_buffers : t -> int
(** Buffers sitting in the free list right now. *)

val assert_quiescent : t -> unit
(** Leak detection: @raise Invalid_argument naming the count if any
    buffer is still checked out. *)
