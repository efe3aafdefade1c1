(** Batched datagram I/O: one syscall per {!max_batch} datagrams.

    Thin, allocation-free wrappers over the [sendmmsg]/[recvmmsg] C stubs
    ({!native} tells you whether the platform really has them — elsewhere
    the same entry points fall back to a [sendto]/[recvfrom] loop with
    identical semantics).  The driver accumulates a tick's datagrams into
    a {!send} batch and {!flush}es it in one kernel entry per
    {!max_batch} datagrams; a {!recv} ring's {!recv_batch} drains up
    to {!max_batch} queued datagrams per syscall.  One batch and one
    ring may serve many sockets: {!flush} and {!recv_batch} take the
    socket as an argument.

    Syscall counts are returned from every operation so callers can
    maintain the [udp.syscalls_tx]/[udp.syscalls_rx] counters the
    packet-rate bench gates on. *)

val native : bool
(** Whether the stubs use real [sendmmsg]/[recvmmsg] (Linux) rather than
    the portable single-syscall-per-datagram fallback. *)

val max_batch : int
(** Largest number of datagrams one kernel entry can carry (64).  Larger
    {!send} batches are flushed in ceil(n/{!max_batch}) syscalls. *)

(** {2 Send batches} *)

type send
(** A growable batch of (buffer, length, destination) entries.  Buffers
    are {e borrowed}: the caller must keep each buffer alive and
    unmodified until the {!flush} that carries it returns (the flush
    reads straight out of them — no copy). *)

val send_create : ?capacity:int -> unit -> send
(** Initial capacity defaults to {!max_batch}; the batch grows on demand
    (amortized, never on the per-datagram path). *)

val send_length : send -> int
(** Entries currently pending. *)

val add : send -> Bytes.t -> len:int -> Unix.sockaddr -> unit
(** Append one datagram: the first [len] bytes of the buffer, to go to
    the given destination.  The same buffer may appear in several entries
    (a fan-out reuses one sealed datagram for every destination). *)

type flush_result = {
  sent : int;  (** datagrams handed to the kernel *)
  errors : int;  (** entries that failed and were dropped (the driver
                     counts them in [udp.tx_errors]) *)
  syscalls : int;
      (** kernel entries used: ceil(n/{!max_batch}) for [n] datagrams
          sent whole, one per [sendto] on the fallback *)
}

val flush : send -> Unix.file_descr -> flush_result
(** Send every pending entry, in order, in as few syscalls as possible;
    the batch is empty afterwards.  EINTR is retried until the datagram
    reaches a real outcome; an entry the kernel refuses (EAGAIN under
    extreme pressure behaves like network loss) is counted in [errors]
    and skipped, never silently dropped or retried forever. *)

(** {2 Receive rings} *)

type recv
(** A fixed set of reusable receive slots (buffer + length + source
    address), filled by {!recv_batch} and overwritten by the next call —
    decode what you need before draining again. *)

val recv_create : ?slots:int -> buf_size:int -> unit -> recv
(** [slots] (default 8, capped at {!max_batch}) buffers of [buf_size]
    bytes each — allocated once, for the ring's lifetime. *)

val slots : recv -> int
(** The ring's slot count.  A {!recv_batch} that fills every slot may
    have left more datagrams queued; fewer means the socket is dry. *)

val recv_batch : recv -> Unix.file_descr -> int
(** Drain up to [slots] datagrams queued on the (non-blocking) socket in
    one syscall.  Returns the number received; 0 means the socket is dry.
    Datagrams larger than [buf_size] are truncated (and will then fail
    CRC validation downstream, like any corrupted datagram).  EINTR and
    ECONNREFUSED (ICMP bounce from a closed peer) are absorbed. *)

val slot : recv -> int -> Bytes.t
(** The bytes of slot [i] (valid for indices below the last
    {!recv_batch} result, until the next call). *)

val slot_len : recv -> int -> int
val slot_from : recv -> int -> Unix.sockaddr
