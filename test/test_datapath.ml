(* The allocation-lean packet datapath: pooled buffer discipline, the
   pooled egress's byte-identity with the legacy encode-per-message path,
   the recv loop's and the pooled path's allocation budgets, and the
   batched sockets' syscall ceiling. *)

module Buffer_pool = Rmcast.Buffer_pool
module Header = Rmcast.Header
module Np_machine = Rmcast.Np_machine
module Udp_np = Rmcast.Udp_np

(* --- buffer pool -------------------------------------------------------- *)

let test_pool_reuse () =
  let pool = Buffer_pool.create ~capacity:4 ~buf_size:128 () in
  let a = Buffer_pool.checkout pool in
  let b = Buffer_pool.checkout pool in
  Alcotest.(check int) "two outstanding" 2 (Buffer_pool.outstanding pool);
  Buffer_pool.release pool a;
  Buffer_pool.release pool b;
  Alcotest.(check int) "none outstanding" 0 (Buffer_pool.outstanding pool);
  Alcotest.(check int) "free list holds both" 2 (Buffer_pool.free_buffers pool);
  let c = Buffer_pool.checkout pool in
  Alcotest.(check bool) "checkout reuses a released buffer" true (c == a || c == b);
  Buffer_pool.release pool c;
  Alcotest.(check int) "three checkouts total" 3 (Buffer_pool.total_checkouts pool);
  Alcotest.(check int) "peak was 2" 2 (Buffer_pool.peak_outstanding pool);
  Alcotest.(check int) "no overflow" 0 (Buffer_pool.overflow_allocs pool);
  Buffer_pool.assert_quiescent pool

let test_pool_overflow () =
  (* Exhausting the pool degrades to plain allocation — counted, never
     blocking — and surplus buffers coming home to a full free list are
     dropped rather than growing the pool. *)
  let pool = Buffer_pool.create ~capacity:2 ~buf_size:64 () in
  let bufs = List.init 3 (fun _ -> Buffer_pool.checkout pool) in
  Alcotest.(check int) "one overflow alloc" 1 (Buffer_pool.overflow_allocs pool);
  Alcotest.(check int) "peak tracks overflow" 3 (Buffer_pool.peak_outstanding pool);
  List.iter (Buffer_pool.release pool) bufs;
  Alcotest.(check int) "free list capped at capacity" 2 (Buffer_pool.free_buffers pool);
  Buffer_pool.assert_quiescent pool

let test_pool_misuse () =
  let pool = Buffer_pool.create ~capacity:2 ~buf_size:64 () in
  let a = Buffer_pool.checkout pool in
  Buffer_pool.release pool a;
  Alcotest.check_raises "double release"
    (Invalid_argument "Buffer_pool.release: double release") (fun () ->
      Buffer_pool.release pool a);
  Alcotest.check_raises "foreign buffer"
    (Invalid_argument "Buffer_pool.release: buffer size does not match this pool")
    (fun () -> Buffer_pool.release pool (Bytes.create 63));
  Alcotest.check_raises "release without checkout"
    (Invalid_argument "Buffer_pool.release: nothing checked out") (fun () ->
      Buffer_pool.release pool (Bytes.create 64));
  Alcotest.check_raises "bad buf_size"
    (Invalid_argument "Buffer_pool.create: buf_size must be >= 1") (fun () ->
      ignore (Buffer_pool.create ~buf_size:0 ()))

let test_pool_with_buf_releases_on_exception () =
  let pool = Buffer_pool.create ~capacity:2 ~buf_size:64 () in
  (try Buffer_pool.with_buf pool (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "released on exception" 0 (Buffer_pool.outstanding pool);
  Buffer_pool.assert_quiescent pool

let test_pool_leak_detection () =
  let pool = Buffer_pool.create ~capacity:2 ~buf_size:64 () in
  let _leaked = Buffer_pool.checkout pool in
  Alcotest.check_raises "leak reported"
    (Invalid_argument "Buffer_pool: 1 buffer(s) leaked (still checked out)") (fun () ->
      Buffer_pool.assert_quiescent pool)

(* Every datagram the UDP driver sends passes through one checkout and
   one release, so a warm pool must not touch the minor heap. *)
let test_pool_allocates_nothing () =
  let pool = Buffer_pool.create ~capacity:4 ~buf_size:Udp_np.max_datagram () in
  Buffer_pool.release pool (Buffer_pool.checkout pool) (* warm up *);
  let reps = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    Buffer_pool.release pool (Buffer_pool.checkout pool)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "words per checkout+release" 0
    (int_of_float (words /. float_of_int reps));
  Buffer_pool.assert_quiescent pool

(* --- pooled egress == legacy egress ------------------------------------- *)

let with_tg message tg_id =
  match message with
  | Header.Data { k; index; payload; _ } -> Header.Data { tg_id; k; index; payload }
  | Header.Parity { k; index; round; payload; _ } ->
    Header.Parity { tg_id; k; index; round; payload }
  | Header.Poll { k; size; round; _ } -> Header.Poll { tg_id; k; size; round }
  | Header.Nak { need; round; _ } -> Header.Nak { tg_id; need; round }
  | Header.Exhausted _ -> Header.Exhausted { tg_id }

(* Every Send a seeded sender machine emits on its initial pass: DATA,
   proactive PARITY and the round-0 POLL — the messages the UDP driver's
   batched egress actually carries. *)
let sender_messages ~k ~h ~proactive ~npackets ~payload_size =
  let data =
    Array.init npackets (fun i -> Bytes.make payload_size (Char.chr (i land 0xFF)))
  in
  let config =
    { Np_machine.k; h; proactive; pre_encode = false; slot = 0.02; codec = `Rse }
  in
  let sender = Np_machine.Sender.create config ~data in
  let messages = ref [] in
  while Np_machine.Sender.pending sender do
    List.iter
      (function Np_machine.Send m -> messages := m :: !messages | _ -> ())
      (Np_machine.Sender.handle sender Np_machine.Tick)
  done;
  List.rev !messages

let test_pooled_egress_byte_identity () =
  (* The differential property the driver-equivalence suite relies on:
     encode_into a pooled buffer — with the multi-session sid patched in
     place via set_tg_id + reseal_slice — yields exactly the datagram the
     legacy path got from rewriting the message and re-encoding it. *)
  let messages = sender_messages ~k:4 ~h:4 ~proactive:2 ~npackets:11 ~payload_size:64 in
  Alcotest.(check bool) "sender emitted packets" true (List.length messages > 10);
  let pool = Buffer_pool.create ~capacity:2 ~buf_size:2048 () in
  List.iteri
    (fun i message ->
      List.iter
        (fun sid ->
          let wire_tg = (sid lsl 16) lor Header.tg_id message in
          let legacy = Header.encode (with_tg message wire_tg) in
          let pooled =
            Buffer_pool.with_buf pool (fun buf ->
                let len = Header.encode_into buf ~off:0 message in
                if sid <> 0 then begin
                  Header.set_tg_id buf ~off:0 wire_tg;
                  Header.reseal_slice buf ~off:0 ~len
                end;
                Bytes.sub buf 0 len)
          in
          Alcotest.(check bytes)
            (Printf.sprintf "message %d, sid %d" i sid)
            legacy pooled)
        [ 0; 5 ])
    messages;
  Buffer_pool.assert_quiescent pool

(* --- recv-loop allocation budget ----------------------------------------- *)

let test_drain_alloc_budget () =
  (* [Udp_np.drain] decodes straight out of the receive ring: per
     datagram it may allocate the decoded message and its payload copy
     (~140 words for a 1 KiB payload) and nothing datagram-sized.  The
     seed driver's per-datagram 64 KiB scratch (amortized ~260 words
     here) plus whole-datagram [Bytes.sub] (+130 words) blows this budget
     immediately — this is the regression gate for both. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock b;
  let n = 32 in
  let payload_size = 1024 in
  for i = 0 to n - 1 do
    let dgram =
      Header.encode
        (Header.Data
           { tg_id = i; k = 64; index = i mod 64;
             payload = Bytes.make payload_size (Char.chr (i land 0xFF)) })
    in
    ignore (Unix.send a dgram 0 (Bytes.length dgram) [])
  done;
  let ring = Rmcast.Udp_batch.recv_create ~buf_size:Udp_np.max_datagram () in
  let metrics = Rmcast.Metrics.create () in
  let syscalls = Rmcast.Metrics.counter metrics "syscalls"
  and datagrams = Rmcast.Metrics.counter metrics "datagrams" in
  let received = ref 0 in
  let handle message _from =
    (match message with
    | Header.Data { payload; _ } when Bytes.length payload = payload_size -> incr received
    | _ -> ())
  in
  let before = Gc.minor_words () in
  Udp_np.drain ~ring ~syscalls ~datagrams b handle;
  let words = Gc.minor_words () -. before in
  Unix.close a;
  Unix.close b;
  Alcotest.(check int) "all datagrams decoded" n !received;
  let per_datagram = words /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words/datagram within budget" per_datagram)
    true (per_datagram < 250.0)

(* --- pooled datapath: bytes per datagram -------------------------------- *)

(* One message through encode -> wire blit -> decode at a unicast fan-out
   of 4, the way the UDP driver moves it: one [encode_into] into a pooled
   buffer shared by the fan-out, a persistent receive buffer (standing in
   for a slot of the [recvmmsg] ring, the blit for the kernel's copy), and
   [decode_slice] straight out of it. *)
let fanout = 4

let data_msg =
  let rng = Rmcast.Rng.create ~seed:7 () in
  Header.Data
    {
      tg_id = 3;
      k = 8;
      index = 2;
      payload = Bytes.init 1024 (fun _ -> Char.chr (Rmcast.Rng.int rng 256));
    }

let nak_msg = Header.Nak { tg_id = 3; need = 2; round = 1 }

let test_pooled_alloc_budget () =
  (* Deterministic, so the budgets are tight: DATA pays the one payload
     copy out of the recv slice plus the decoded message; NAK allocates
     only the message.  A breach means a per-datagram copy or buffer crept
     back into the datapath. *)
  let pool = Buffer_pool.create ~capacity:4 ~buf_size:Udp_np.max_datagram () in
  let rx_scratch = Bytes.create Udp_np.max_datagram in
  let sink = ref 0 in
  let pooled message () =
    Buffer_pool.with_buf pool (fun buf ->
        let len = Header.encode_into buf ~off:0 message in
        for _ = 1 to fanout do
          Bytes.blit buf 0 rx_scratch 0 len;
          match Header.decode_slice rx_scratch ~off:0 ~len with
          | Ok m -> sink := !sink + Header.tg_id m
          | Error reason -> failwith ("pooled decode: " ^ reason)
        done)
  in
  let bytes_per_datagram f =
    f () (* warm up: pool population *);
    let reps = 2000 in
    let before = Gc.allocated_bytes () in
    for _ = 1 to reps do
      f ()
    done;
    (Gc.allocated_bytes () -. before) /. float_of_int (reps * fanout)
  in
  List.iter
    (fun (kind, message, budget) ->
      let bytes = bytes_per_datagram (pooled message) in
      Alcotest.(check bool)
        (Printf.sprintf "pooled %s: %.1f B/datagram <= %.0f" kind bytes budget)
        true (bytes <= budget))
    [ ("data", data_msg, 1400.0); ("nak", nak_msg, 256.0) ];
  Alcotest.(check bool) "every copy decoded" true (!sink > 0);
  Buffer_pool.assert_quiescent pool

(* --- batched sockets: syscalls per datagram ------------------------------ *)

(* Messages coalesced 32 to a frame, 4 frames per [sendmmsg] flush, unicast
   to 8 loopback receivers, each drained through {!Udp_np.drain} and its own
   [recvmmsg] ring after every flush: every kernel entry, drains included,
   over every delivered copy.
   The per-datagram path (one [sendto] per copy, one [recvfrom] per
   datagram) pays ~2; the batched path must stay under 0.5. *)
let test_batched_syscalls_per_datagram () =
  let fanout = 8 and messages = 2_000 and coalesce = 32 and frames_per_flush = 4 in
  let message kind i =
    match kind with
    | `Data ->
      Header.Data
        { tg_id = i land 0xFFFF; k = 8; index = i land 7;
          payload = Bytes.make 256 (Char.chr (i land 0xFF)) }
    | `Nak -> Header.Nak { tg_id = i land 0xFFFF; need = 1 + (i land 7); round = 1 }
  in
  let socket () =
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.set_nonblock socket;
    (try Unix.setsockopt_int socket Unix.SO_RCVBUF (1 lsl 21) with Unix.Unix_error _ -> ());
    socket
  in
  let run kind =
    let tx = socket () and rxs = Array.init fanout (fun _ -> socket ()) in
    let dests = Array.map Unix.getsockname rxs in
    let rings =
      Array.map
        (fun _ -> Rmcast.Udp_batch.recv_create ~slots:8 ~buf_size:Udp_np.max_datagram ())
        rxs
    in
    let batch = Rmcast.Udp_batch.send_create () in
    let frames = Array.init frames_per_flush (fun _ -> Bytes.create Udp_np.max_datagram) in
    let metrics = Rmcast.Metrics.create () in
    let rx_syscalls = Rmcast.Metrics.counter metrics "syscalls"
    and datagrams = Rmcast.Metrics.counter metrics "datagrams" in
    let delivered = ref 0 and tx_syscalls = ref 0 and decode_errors = ref 0 in
    let drain_all () =
      Array.iter2
        (fun ring rx ->
          Udp_np.drain
            ~on_decode_error:(fun () -> incr decode_errors)
            ~ring ~syscalls:rx_syscalls ~datagrams rx
            (fun _ _ -> incr delivered))
        rings rxs
    in
    let i = ref 0 in
    while !i < messages do
      let used = ref 0 in
      while !used < frames_per_flush && !i < messages do
        let buf = frames.(!used) and len = ref 0 and in_frame = ref 0 in
        while !in_frame < coalesce && !i < messages do
          len := !len + Header.encode_into buf ~off:!len (message kind !i);
          incr in_frame;
          incr i
        done;
        Array.iter (fun dest -> Rmcast.Udp_batch.add batch buf ~len:!len dest) dests;
        incr used
      done;
      let { Rmcast.Udp_batch.sent = _; errors; syscalls = flushed } =
        Rmcast.Udp_batch.flush batch tx
      in
      Alcotest.(check int) "no send errors" 0 errors;
      tx_syscalls := !tx_syscalls + flushed;
      drain_all ()
    done;
    let expected = messages * fanout in
    let deadline = Unix.gettimeofday () +. 2.0 in
    while !delivered < expected && Unix.gettimeofday () < deadline do
      ignore (Unix.select (Array.to_list rxs) [] [] 0.01);
      drain_all ()
    done;
    Unix.close tx;
    Array.iter Unix.close rxs;
    Alcotest.(check int) "no decode errors" 0 !decode_errors;
    Alcotest.(check int) "every copy delivered" expected !delivered;
    float_of_int (!tx_syscalls + Rmcast.Metrics.count rx_syscalls) /. float_of_int !delivered
  in
  List.iter
    (fun (name, kind) ->
      let per_datagram = run kind in
      Alcotest.(check bool)
        (Printf.sprintf "batched %s: %.3f syscalls/datagram < 0.5" name per_datagram)
        true (per_datagram < 0.5))
    [ ("data", `Data); ("nak", `Nak) ]

let suite =
  [
    Alcotest.test_case "pool checkout/release/reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool overflow accounting" `Quick test_pool_overflow;
    Alcotest.test_case "pool misuse detection" `Quick test_pool_misuse;
    Alcotest.test_case "with_buf releases on exception" `Quick
      test_pool_with_buf_releases_on_exception;
    Alcotest.test_case "pool leak detection" `Quick test_pool_leak_detection;
    Alcotest.test_case "pool checkout/release allocates nothing" `Quick
      test_pool_allocates_nothing;
    Alcotest.test_case "pooled egress byte-identical to legacy" `Quick
      test_pooled_egress_byte_identity;
    Alcotest.test_case "drain allocation budget" `Quick test_drain_alloc_budget;
    Alcotest.test_case "pooled datapath allocation budget" `Quick test_pooled_alloc_budget;
    Alcotest.test_case "batched sockets syscalls per datagram" `Quick
      test_batched_syscalls_per_datagram;
  ]
