(* OCaml face of the sendmmsg/recvmmsg stubs: growable send batches and
   reusable receive rings, with syscalls counted so the bench (and the
   metrics) can report syscalls per datagram honestly. *)

external native_mmsg : unit -> bool = "rmc_udp_native_mmsg"
external sendmmsg_stub :
  Unix.file_descr -> Bytes.t array -> int array -> Unix.sockaddr array -> int -> int
  = "rmc_udp_sendmmsg"
external recvmmsg_stub :
  Unix.file_descr -> Bytes.t array -> int array -> Unix.sockaddr array -> int -> int
  = "rmc_udp_recvmmsg"

let native = native_mmsg ()
let max_batch = 64

(* --- send batches ------------------------------------------------------ *)

type send = {
  mutable bufs : Bytes.t array;
  mutable lens : int array;
  mutable dests : Unix.sockaddr array;
  mutable count : int;
}

let dummy_addr = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

let send_create ?(capacity = max_batch) () =
  let capacity = max 1 capacity in
  {
    bufs = Array.make capacity Bytes.empty;
    lens = Array.make capacity 0;
    dests = Array.make capacity dummy_addr;
    count = 0;
  }

let send_length batch = batch.count

let grow batch =
  let capacity = 2 * Array.length batch.bufs in
  let bufs = Array.make capacity Bytes.empty in
  let lens = Array.make capacity 0 in
  let dests = Array.make capacity dummy_addr in
  Array.blit batch.bufs 0 bufs 0 batch.count;
  Array.blit batch.lens 0 lens 0 batch.count;
  Array.blit batch.dests 0 dests 0 batch.count;
  batch.bufs <- bufs;
  batch.lens <- lens;
  batch.dests <- dests

let add batch buf ~len dest =
  if batch.count = Array.length batch.bufs then grow batch;
  batch.bufs.(batch.count) <- buf;
  batch.lens.(batch.count) <- len;
  batch.dests.(batch.count) <- dest;
  batch.count <- batch.count + 1

type flush_result = { sent : int; errors : int; syscalls : int }

(* Slide the pending tail of the batch down to the front: the stub sends
   a prefix, so after a short send (EAGAIN / a failing entry skipped) the
   remainder restarts at index 0. *)
let compact batch from =
  let remaining = batch.count - from in
  Array.blit batch.bufs from batch.bufs 0 remaining;
  Array.blit batch.lens from batch.lens 0 remaining;
  Array.blit batch.dests from batch.dests 0 remaining;
  (* Drop stale references so flushed buffers can be released/collected. *)
  Array.fill batch.bufs remaining (batch.count - remaining) Bytes.empty;
  Array.fill batch.dests remaining (batch.count - remaining) dummy_addr;
  batch.count <- remaining

(* Kernel entries one stub call made.  The stub sends in chunks of
   [max_batch] (one sendto per datagram without sendmmsg); a short send
   stopped in the chunk after its last whole one. *)
let entries ~complete sent =
  let chunk = if native then max_batch else 1 in
  if complete then (sent + chunk - 1) / chunk else (sent / chunk) + 1

let flush batch socket =
  let sent = ref 0 and errors = ref 0 and syscalls = ref 0 in
  let rec loop () =
    if batch.count > 0 then begin
      match sendmmsg_stub socket batch.bufs batch.lens batch.dests batch.count with
      | n when n >= batch.count ->
        sent := !sent + n;
        syscalls := !syscalls + entries ~complete:true n;
        compact batch batch.count
      | n ->
        sent := !sent + n;
        syscalls := !syscalls + entries ~complete:false n;
        (* The entry after the sent prefix failed (or the kernel told us
           to come back later): a full UDP send queue behaves like
           network loss everywhere else in this driver, so count the
           datagram as an error and move on rather than block the
           tick. *)
        incr errors;
        compact batch (n + 1);
        loop ()
      | exception Unix.Unix_error (_, _, _) ->
        (* First pending entry failed outright. *)
        incr syscalls;
        incr errors;
        compact batch 1;
        loop ()
    end
  in
  loop ();
  { sent = !sent; errors = !errors; syscalls = !syscalls }

(* --- receive rings ------------------------------------------------------ *)

type recv = {
  slots : Bytes.t array;
  slot_lens : int array;
  froms : Unix.sockaddr array;
  slot_count : int;
}

let recv_create ?(slots = 8) ~buf_size () =
  let slots = max 1 (min slots max_batch) in
  {
    slots = Array.init slots (fun _ -> Bytes.create buf_size);
    slot_lens = Array.make slots 0;
    froms = Array.make slots dummy_addr;
    slot_count = slots;
  }

let slots ring = ring.slot_count

let recv_batch ring socket =
  recvmmsg_stub socket ring.slots ring.slot_lens ring.froms ring.slot_count

let slot ring i = ring.slots.(i)
let slot_len ring i = ring.slot_lens.(i)
let slot_from ring i = ring.froms.(i)
