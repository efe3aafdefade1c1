(** True IPv4 multicast sockets, scoped to the loopback interface.

    The unicast shim emulates multicast with one datagram per group
    member (batched into one [sendmmsg] flush); these sockets make the
    kernel do that fan-out: one send to a
    239.0.0.0/8 group is delivered to every local member.  Everything is
    pinned to loopback with TTL 1 — [IP_MULTICAST_IF] = 127.0.0.1 on
    senders, [IP_MULTICAST_LOOP] on (required for same-host delivery),
    receivers bound to the group port with [SO_REUSEADDR] +
    [SO_REUSEPORT] and joined via [IP_ADD_MEMBERSHIP] — so sessions never
    leak datagrams off-host.

    Not every environment routes multicast over loopback (minimal
    containers, exotic namespaces); gate on {!is_available}, which runs a
    one-datagram kernel round-trip probe once and caches the verdict. *)

type group = { address : string; port : int }
(** An administratively-scoped (239.x.y.z) IPv4 group. *)

val group_of_seed : int -> group
(** Derive a group and port from a seed, mixed with the process id:
    distinct runs (and concurrent test processes) land on distinct
    groups, so their datagrams never cross. *)

val group_addr : group -> Unix.sockaddr
(** The [ADDR_INET] destination sends to. *)

val sender_socket : unit -> Unix.file_descr
(** A non-blocking socket configured to transmit to groups over
    loopback (multicast interface, loop, TTL 1); bound to an ephemeral
    loopback port, so replies can be unicast back to it. *)

val receiver_socket : group -> Unix.file_descr
(** A non-blocking socket bound to the group's port (reusable, so every
    receiver in the process binds it) and joined to the group on
    loopback.
    @raise Unix.Unix_error when the kernel refuses the membership. *)

val join : Unix.file_descr -> group -> unit
(** [IP_ADD_MEMBERSHIP] on the loopback interface. *)

val leave : Unix.file_descr -> group -> unit

val is_available : unit -> bool
(** Whether multicast actually round-trips over loopback here — one
    probe datagram through a throwaway group, result cached.  The
    multicast transport (and its tests) bail out cleanly when false. *)
