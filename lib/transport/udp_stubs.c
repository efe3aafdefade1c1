/* Batched datagram syscalls and multicast socket options for the
   line-rate UDP transport.

   sendmmsg/recvmmsg move a whole batch of datagrams per kernel entry;
   on platforms without them (anything non-Linux here) the same entry
   points degrade to a sendto/recvfrom loop with identical semantics, so
   OCaml callers never need a platform branch — they can query
   rmc_udp_native_mmsg to report (and benchmark) which path they got.

   Retry policy (every protocol datagram the UDP driver sends or
   receives goes through these stubs; only the multicast probe uses
   Unix.sendto/recvfrom directly): EINTR is
   retried until the syscall reaches a real outcome (a signal must never
   drop a datagram), EAGAIN terminates a drain / reports a partial send,
   and ECONNREFUSED (ICMP bounce from a closed peer port) is swallowed
   on receive. */

#define _GNU_SOURCE
#include <string.h>
#include <errno.h>
#include <sys/types.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/socketaddr.h>
#include <caml/unixsupport.h>

#ifdef __linux__
#define RMC_HAVE_MMSG 1
#else
#define RMC_HAVE_MMSG 0
#endif

#define RMC_MAX_BATCH 64

CAMLprim value rmc_udp_native_mmsg(value unit)
{
  (void)unit;
  return Val_bool(RMC_HAVE_MMSG);
}

/* --- batched send ---------------------------------------------------- */

/* rmc_udp_sendmmsg fd bufs lens dests count
   Sends entries [0, count) — datagram i is bufs.(i)[0 .. lens.(i)) to
   dests.(i) — in as few syscalls as the platform allows, and returns the
   number of entries actually handed to the kernel.  EINTR is retried;
   any other error stops the batch: a short return with errno EAGAIN
   means "try the rest later", and an error on the very first pending
   entry raises Unix_error so the caller can count and skip it. */
CAMLprim value rmc_udp_sendmmsg(value vfd, value vbufs, value vlens,
                                value vdests, value vcount)
{
  CAMLparam5(vfd, vbufs, vlens, vdests, vcount);
  int fd = Int_val(vfd);
  int count = Int_val(vcount);
  int sent = 0;

  if (count < 0 || count > Wosize_val(vbufs) || count > Wosize_val(vlens)
      || count > Wosize_val(vdests))
    caml_invalid_argument("rmc_udp_sendmmsg: count exceeds batch arrays");

  while (sent < count) {
    int chunk = count - sent;
    if (chunk > RMC_MAX_BATCH) chunk = RMC_MAX_BATCH;

    /* The iovecs point straight at the Bytes payloads — zero copies —
       so the runtime lock is held across the syscall: these sockets are
       non-blocking (loopback UDP sends complete immediately) and a
       released lock would let a stop-the-world minor GC move young
       buffers out from under the kernel. */
    struct sockaddr_storage addrs[RMC_MAX_BATCH];
    socklen_t addr_lens[RMC_MAX_BATCH];
    struct iovec iov[RMC_MAX_BATCH];
#if RMC_HAVE_MMSG
    struct mmsghdr msgs[RMC_MAX_BATCH];
#endif
    for (int i = 0; i < chunk; i++) {
      value buf = Field(vbufs, sent + i);
      long len = Long_val(Field(vlens, sent + i));
      if (len < 0 || len > caml_string_length(buf))
        caml_invalid_argument("rmc_udp_sendmmsg: length exceeds buffer");
      union sock_addr_union sa;
      socklen_param_type sa_len;
      caml_unix_get_sockaddr(Field(vdests, sent + i), &sa, &sa_len);
      memcpy(&addrs[i], &sa, sa_len);
      addr_lens[i] = sa_len;
      iov[i].iov_base = Bytes_val(buf);
      iov[i].iov_len = (size_t)len;
#if RMC_HAVE_MMSG
      memset(&msgs[i], 0, sizeof msgs[i]);
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = addr_lens[i];
#endif
    }

    int done;
#if RMC_HAVE_MMSG
    do done = sendmmsg(fd, msgs, chunk, 0);
    while (done < 0 && errno == EINTR);
    if (done < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (sent == 0) caml_uerror("sendmmsg", Nothing);
      break;
    }
    sent += done;
    if (done < chunk) break; /* kernel stopped early: retry later */
#else
    done = 0;
    for (; done < chunk; done++) {
      ssize_t n;
      do
        n = sendto(fd, iov[done].iov_base, iov[done].iov_len, 0,
                   (struct sockaddr *)&addrs[done], addr_lens[done]);
      while (n < 0 && errno == EINTR);
      if (n < 0) break;
    }
    sent += done;
    if (done < chunk) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (sent == 0) caml_uerror("sendto", Nothing);
      break;
    }
#endif
  }
  CAMLreturn(Val_int(sent));
}

/* --- batched receive ------------------------------------------------- */

/* rmc_udp_recvmmsg fd bufs lens froms max
   Drains up to max datagrams queued on the (non-blocking) socket in one
   syscall where the platform allows: datagram i lands in bufs.(i)
   (truncated to the buffer if oversized), its length in lens.(i), its
   source address in froms.(i).  Returns the number received; 0 means
   the socket is dry (EAGAIN).  EINTR and ECONNREFUSED retry. */
CAMLprim value rmc_udp_recvmmsg(value vfd, value vbufs, value vlens,
                                value vfroms, value vmax)
{
  CAMLparam5(vfd, vbufs, vlens, vfroms, vmax);
  CAMLlocal1(vaddr);
  int fd = Int_val(vfd);
  int max = Int_val(vmax);
  if (max < 0 || max > Wosize_val(vbufs) || max > Wosize_val(vlens)
      || max > Wosize_val(vfroms))
    caml_invalid_argument("rmc_udp_recvmmsg: max exceeds batch arrays");
  if (max > RMC_MAX_BATCH) max = RMC_MAX_BATCH;
  if (max == 0) CAMLreturn(Val_int(0));

  struct sockaddr_storage addrs[RMC_MAX_BATCH];
  int got = 0;

#if RMC_HAVE_MMSG
  struct mmsghdr msgs[RMC_MAX_BATCH];
  struct iovec iov[RMC_MAX_BATCH];
  for (int i = 0; i < max; i++) {
    memset(&msgs[i], 0, sizeof msgs[i]);
    iov[i].iov_base = Bytes_val(Field(vbufs, i));
    iov[i].iov_len = caml_string_length(Field(vbufs, i));
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof addrs[i];
  }
  do got = recvmmsg(fd, msgs, max, MSG_DONTWAIT, NULL);
  while (got < 0 && (errno == EINTR || errno == ECONNREFUSED));
  if (got < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) CAMLreturn(Val_int(0));
    caml_uerror("recvmmsg", Nothing);
  }
  for (int i = 0; i < got; i++) {
    Field(vlens, i) = Val_long(msgs[i].msg_len);
    vaddr = caml_unix_alloc_sockaddr((union sock_addr_union *)&addrs[i],
                                     msgs[i].msg_hdr.msg_namelen, -1);
    Store_field(vfroms, i, vaddr);
  }
#else
  for (got = 0; got < max; got++) {
    value buf = Field(vbufs, got);
    socklen_t addr_len = sizeof addrs[0];
    ssize_t n;
    do
      n = recvfrom(fd, Bytes_val(buf), caml_string_length(buf), MSG_DONTWAIT,
                   (struct sockaddr *)&addrs[0], &addr_len);
    while (n < 0 && (errno == EINTR || errno == ECONNREFUSED));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (got == 0) caml_uerror("recvfrom", Nothing);
      break;
    }
    Field(vlens, got) = Val_long(n);
    vaddr = caml_unix_alloc_sockaddr((union sock_addr_union *)&addrs[0],
                                     addr_len, -1);
    Store_field(vfroms, got, vaddr);
  }
#endif
  CAMLreturn(Val_int(got));
}

/* --- multicast socket options ---------------------------------------- */

static struct in_addr addr_of_string(const char *what, value vaddr)
{
  struct in_addr a;
  if (inet_pton(AF_INET, String_val(vaddr), &a) != 1)
    caml_invalid_argument(what);
  return a;
}

/* rmc_udp_mcast_membership fd group iface join
   IP_ADD_MEMBERSHIP / IP_DROP_MEMBERSHIP on an IPv4 group (dotted
   strings; iface is the local interface address, e.g. "127.0.0.1"). */
CAMLprim value rmc_udp_mcast_membership(value vfd, value vgroup, value viface,
                                        value vjoin)
{
  struct ip_mreq mreq;
  mreq.imr_multiaddr = addr_of_string("mcast_membership: bad group", vgroup);
  mreq.imr_interface = addr_of_string("mcast_membership: bad iface", viface);
  int op = Bool_val(vjoin) ? IP_ADD_MEMBERSHIP : IP_DROP_MEMBERSHIP;
  if (setsockopt(Int_val(vfd), IPPROTO_IP, op, &mreq, sizeof mreq) < 0)
    caml_uerror("setsockopt(IP_MEMBERSHIP)", Nothing);
  return Val_unit;
}

/* rmc_udp_mcast_if fd iface — IP_MULTICAST_IF: which interface this
   socket's multicast transmissions leave through. */
CAMLprim value rmc_udp_mcast_if(value vfd, value viface)
{
  struct in_addr a = addr_of_string("mcast_if: bad iface", viface);
  if (setsockopt(Int_val(vfd), IPPROTO_IP, IP_MULTICAST_IF, &a, sizeof a) < 0)
    caml_uerror("setsockopt(IP_MULTICAST_IF)", Nothing);
  return Val_unit;
}

/* rmc_udp_mcast_loop fd on — IP_MULTICAST_LOOP: whether this socket's
   multicast transmissions are delivered to members on the local host
   (required for the loopback sessions every test runs). */
CAMLprim value rmc_udp_mcast_loop(value vfd, value von)
{
  unsigned char on = Bool_val(von) ? 1 : 0;
  if (setsockopt(Int_val(vfd), IPPROTO_IP, IP_MULTICAST_LOOP, &on, sizeof on) < 0)
    caml_uerror("setsockopt(IP_MULTICAST_LOOP)", Nothing);
  return Val_unit;
}

/* rmc_udp_mcast_ttl fd ttl — IP_MULTICAST_TTL (1 = link-local). */
CAMLprim value rmc_udp_mcast_ttl(value vfd, value vttl)
{
  unsigned char ttl = (unsigned char)Int_val(vttl);
  if (setsockopt(Int_val(vfd), IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof ttl) < 0)
    caml_uerror("setsockopt(IP_MULTICAST_TTL)", Nothing);
  return Val_unit;
}
