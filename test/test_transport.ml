(* The line-rate transport layer: batched sendmmsg/recvmmsg I/O, coalesced
   frames, true multicast sockets, domain-sharded runs — and the bugfix
   sweep's regression tests (fd leaks on failed engine bring-up, atomic
   metrics under domains, the reactor's FD_SETSIZE guard). *)

module Udp = Rmcast.Udp_np
module Udp_batch = Rmcast.Udp_batch
module Udp_multicast = Rmcast.Udp_multicast
module Reactor = Rmcast.Reactor
module Header = Rmcast.Header
module Metrics = Rmcast.Metrics

let payloads ~count ~size seed =
  let rng = Rmcast.Rng.create ~seed () in
  Array.init count (fun _ -> Bytes.init size (fun _ -> Char.chr (Rmcast.Rng.int rng 256)))

let config = { Udp.default_config with session_timeout = 20.0 }

let udp_socket () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock socket;
  socket

(* --- batched send/recv ------------------------------------------------- *)

(* The stub sends in chunks of [max_batch], one kernel entry each: 130
   datagrams are three entries, not one stub call. *)
let test_udp_batch_counts_entries () =
  let tx = udp_socket () and rx = udp_socket () in
  let dest = Unix.getsockname rx in
  let n = 130 in
  let batch = Udp_batch.send_create () in
  let buf = Bytes.make 32 'e' in
  for _ = 1 to n do
    Udp_batch.add batch buf ~len:32 dest
  done;
  let { Udp_batch.sent; errors; syscalls } = Udp_batch.flush batch tx in
  Unix.close tx;
  Unix.close rx;
  Alcotest.(check int) "all sent" n sent;
  Alcotest.(check int) "no errors" 0 errors;
  Alcotest.(check int) "kernel entries"
    (if Udp_batch.native then (n + Udp_batch.max_batch - 1) / Udp_batch.max_batch else n)
    syscalls;
  if Udp_batch.native then Alcotest.(check int) "130 datagrams, 3 entries" 3 syscalls

let test_udp_batch_roundtrip () =
  let tx = udp_socket () and rx = udp_socket () in
  let dest = Unix.getsockname rx in
  let n = 10 in
  let batch = Udp_batch.send_create ~capacity:4 () in
  for i = 0 to n - 1 do
    (* capacity 4 forces the batch to grow mid-fill *)
    Udp_batch.add batch (Bytes.make 32 (Char.chr (65 + i))) ~len:32 dest
  done;
  Alcotest.(check int) "entries pending" n (Udp_batch.send_length batch);
  let { Udp_batch.sent; errors; syscalls } = Udp_batch.flush batch tx in
  Alcotest.(check int) "all sent" n sent;
  Alcotest.(check int) "no errors" 0 errors;
  Alcotest.(check int) "batch empty after flush" 0 (Udp_batch.send_length batch);
  if Udp_batch.native then
    Alcotest.(check int) "one syscall carried the batch" 1 syscalls;
  ignore (Unix.select [ rx ] [] [] 1.0);
  let ring = Udp_batch.recv_create ~slots:16 ~buf_size:64 () in
  let got = Udp_batch.recv_batch ring rx in
  Alcotest.(check int) "one drain returns the batch" n got;
  for i = 0 to got - 1 do
    Alcotest.(check int) "length" 32 (Udp_batch.slot_len ring i);
    Alcotest.(check char)
      (Printf.sprintf "slot %d payload" i)
      (Char.chr (65 + i))
      (Bytes.get (Udp_batch.slot ring i) 0);
    Alcotest.(check bool)
      (Printf.sprintf "slot %d source" i)
      true
      (Udp_batch.slot_from ring i = Unix.getsockname tx)
  done;
  Alcotest.(check int) "socket dry" 0 (Udp_batch.recv_batch ring rx);
  Unix.close tx;
  Unix.close rx

(* --- coalesced frames --------------------------------------------------- *)

let counter name = Metrics.counter (Metrics.create ()) name

let test_frame_walk () =
  (* Three messages packed back to back in one datagram decode in order;
     a corrupted message mid-frame is skipped (its boundary still
     delimits) and the walk continues. *)
  let messages =
    [
      Header.Data { tg_id = 1; k = 4; index = 0; payload = Bytes.make 48 'a' };
      Header.Poll { tg_id = 1; k = 4; size = 4; round = 0 };
      Header.Data { tg_id = 1; k = 4; index = 1; payload = Bytes.make 48 'b' };
    ]
  in
  let frame = Bytes.create 512 in
  let offsets_len =
    List.fold_left
      (fun off message -> off + Header.encode_into frame ~off message)
      0 messages
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock b;
  ignore (Unix.send a frame 0 offsets_len []);
  (* same frame with the middle message's checksum flipped *)
  let second_off = Header.encoded_size (List.hd messages) in
  Bytes.set frame (second_off + 22) (Char.chr (Char.code (Bytes.get frame (second_off + 22)) lxor 0xFF));
  ignore (Unix.send a frame 0 offsets_len []);
  let ring = Udp_batch.recv_create ~buf_size:Udp.max_datagram () in
  let decoded = ref [] and failures = ref 0 in
  Udp.drain
    ~on_decode_error:(fun () -> incr failures)
    ~ring ~syscalls:(counter "syscalls") ~datagrams:(counter "datagrams") b
    (fun message _from -> decoded := message :: !decoded);
  Unix.close a;
  Unix.close b;
  let decoded = List.rev !decoded in
  Alcotest.(check int) "five messages across both frames" 5 (List.length decoded);
  Alcotest.(check int) "one corrupt message counted" 1 !failures;
  List.iteri
    (fun i (expected, got) ->
      Alcotest.(check bool) (Printf.sprintf "clean frame message %d" i) true
        (Header.equal expected got))
    (List.combine messages [ List.nth decoded 0; List.nth decoded 1; List.nth decoded 2 ])

let test_drain_oversized_datagram () =
  (* A datagram bigger than a ring slot is truncated by the kernel;
     the frame walk reports it undecodable and the drain moves on to the
     next datagram instead of wedging or crashing. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock b;
  let big =
    Header.encode (Header.Data { tg_id = 7; k = 4; index = 0; payload = Bytes.make 400 'x' })
  in
  ignore (Unix.send a big 0 (Bytes.length big) []);
  let small = Header.encode (Header.Poll { tg_id = 7; k = 4; size = 4; round = 0 }) in
  ignore (Unix.send a small 0 (Bytes.length small) []);
  let ring = Udp_batch.recv_create ~buf_size:128 () in
  let decoded = ref [] and failures = ref 0 in
  Udp.drain
    ~on_decode_error:(fun () -> incr failures)
    ~ring ~syscalls:(counter "syscalls") ~datagrams:(counter "datagrams") b
    (fun message _from -> decoded := message :: !decoded);
  Unix.close a;
  Unix.close b;
  Alcotest.(check int) "truncated datagram counted" 1 !failures;
  Alcotest.(check int) "later datagram still decoded" 1 (List.length !decoded)

(* Encode [messages] back to back into one coalesced frame. *)
let coalesce messages =
  let frame = Bytes.create 4096 in
  let len =
    List.fold_left (fun off message -> off + Header.encode_into frame ~off message) 0 messages
  in
  Bytes.sub frame 0 len

let test_shared_ring_two_sockets () =
  (* The engine drains every socket of a shard through one ring.  Two
     socketpairs drained in turn through one two-slot ring (so each drain
     loops and every slot is reused) decode both sockets' frames, and no
     payload handed to the callback aliases a slot: each still holds its
     bytes after later drains overwrite the ring. *)
  let pairs =
    List.map
      (fun _ ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
        Unix.set_nonblock b;
        (a, b))
      [ 0; 1 ]
  in
  let frames_of socket =
    List.init 5 (fun i ->
        let fill c = Bytes.make 64 (Char.chr (Char.code c + i)) in
        let tg_id = (socket * 100) + i in
        [
          Header.Data
            { tg_id; k = 4; index = 0; payload = fill (if socket = 0 then 'a' else 'A') };
          Header.Poll { tg_id; k = 4; size = 4; round = 0 };
          Header.Parity
            { tg_id; k = 4; index = 4; round = 1;
              payload = fill (if socket = 0 then 'm' else 'M') };
        ])
  in
  List.iteri
    (fun socket (a, _) ->
      List.iter
        (fun messages ->
          let frame = coalesce messages in
          ignore (Unix.send a frame 0 (Bytes.length frame) []))
        (frames_of socket))
    pairs;
  let ring = Udp_batch.recv_create ~slots:2 ~buf_size:Udp.max_datagram () in
  let decoded = ref [] and failures = ref 0 in
  let drain (_, b) =
    Udp.drain
      ~on_decode_error:(fun () -> incr failures)
      ~ring ~syscalls:(counter "syscalls") ~datagrams:(counter "datagrams") b
      (fun message _from ->
        let snapshot =
          match message with
          | Header.Data { payload; _ } | Header.Parity { payload; _ } -> Bytes.copy payload
          | Header.Poll _ | Header.Nak _ | Header.Exhausted _ -> Bytes.empty
        in
        decoded := (message, snapshot) :: !decoded)
  in
  List.iter drain pairs;
  List.iter
    (fun (a, b) ->
      Unix.close a;
      Unix.close b)
    pairs;
  let expected = List.concat (List.concat_map frames_of [ 0; 1 ]) in
  let decoded = List.rev !decoded in
  Alcotest.(check int) "no decode failure" 0 !failures;
  Alcotest.(check int) "every message of both sockets" (List.length expected)
    (List.length decoded);
  List.iteri
    (fun i (want, (got, snapshot)) ->
      Alcotest.(check bool) (Printf.sprintf "message %d decoded" i) true (Header.equal want got);
      match got with
      | Header.Data { payload; _ } | Header.Parity { payload; _ } ->
        Alcotest.(check bytes)
          (Printf.sprintf "message %d payload unchanged by later drains" i)
          snapshot payload
      | Header.Poll _ | Header.Nak _ | Header.Exhausted _ -> ())
    (List.combine expected decoded)

let test_drain_truncated_frame () =
  (* A coalesced frame cut anywhere inside its last message delivers the
     messages before the cut, counts exactly one decode failure, and the
     next datagram on the socket still decodes. *)
  let messages =
    [
      Header.Data { tg_id = 3; k = 4; index = 0; payload = Bytes.make 48 'a' };
      Header.Poll { tg_id = 3; k = 4; size = 4; round = 0 };
      Header.Data { tg_id = 3; k = 4; index = 1; payload = Bytes.make 48 'b' };
    ]
  in
  let frame = coalesce messages in
  let last = Header.encoded_size (List.nth messages 2) in
  let next = Header.encode (Header.Exhausted { tg_id = 9 }) in
  let ring = Udp_batch.recv_create ~buf_size:Udp.max_datagram () in
  for cut = Bytes.length frame - last + 1 to Bytes.length frame - 1 do
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
    Unix.set_nonblock b;
    ignore (Unix.send a frame 0 cut []);
    ignore (Unix.send a next 0 (Bytes.length next) []);
    let decoded = ref [] and failures = ref 0 in
    Udp.drain
      ~on_decode_error:(fun () -> incr failures)
      ~ring ~syscalls:(counter "syscalls") ~datagrams:(counter "datagrams") b
      (fun message _from -> decoded := message :: !decoded);
    Unix.close a;
    Unix.close b;
    let want = [ List.nth messages 0; List.nth messages 1; Header.Exhausted { tg_id = 9 } ] in
    let decoded = List.rev !decoded in
    Alcotest.(check int) (Printf.sprintf "cut at %d: one decode failure" cut) 1 !failures;
    Alcotest.(check bool)
      (Printf.sprintf "cut at %d: the prefix and the next datagram decode" cut)
      true
      (List.length decoded = List.length want && List.for_all2 Header.equal want decoded)
  done

(* --- bugfix sweep -------------------------------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_no_fd_leak_on_failed_run () =
  (* Regression: a raise between socket creation and teardown used to
     leak the whole socket set.  The engine now tracks each descriptor
     from birth and closes them in one Fun.protect finalizer.  The raise
     here comes after every socket exists: 1100 receivers plus the sender
     socket outnumber the reactor's FD_SETSIZE registrations, so
     registering them fails ([Failure]), or the sockets themselves fail
     ([Unix_error EMFILE]) under a 1024-descriptor limit. *)
  let config = { config with payload_size = 64 } in
  let data = payloads ~count:4 ~size:64 17 in
  let before = open_fds () in
  (match Udp.run_local ~config ~receivers:1100 ~loss:0.0 ~seed:18 ~data () with
  | Ok _ -> Alcotest.fail "expected engine bring-up to raise"
  | Error e -> Alcotest.fail ("expected a raise, got Error: " ^ Rmcast.Error.to_string e)
  | exception (Failure _ | Unix.Unix_error (Unix.EMFILE, _, _)) -> ());
  Alcotest.(check int) "every socket closed despite the raise" before (open_fds ())

let test_metrics_domain_hammer () =
  (* Counters are lock-free atomics and handle creation is serialized:
     four domains hammering one counter (some through fresh name lookups)
     must land on the exact total — the old plain-int RMW lost updates. *)
  let metrics = Metrics.create () in
  let c = Metrics.counter metrics "hammer.total" in
  let per_domain = 25_000 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let mine = Metrics.counter metrics "hammer.total" in
            for _ = 1 to per_domain do
              Metrics.incr mine
            done;
            Metrics.incr ~by:(d + 1) (Metrics.counter metrics "hammer.total")))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "exact total across domains"
    ((4 * per_domain) + 1 + 2 + 3 + 4)
    (Metrics.count c)

let test_reactor_max_fds_guard () =
  (* select silently breaks past FD_SETSIZE, so the reactor refuses new
     descriptors at its cap — loudly, before corruption. *)
  (match Reactor.create ~max_fds:0 () with
  | _ -> Alcotest.fail "max_fds 0 accepted"
  | exception Invalid_argument _ -> ());
  let reactor = Reactor.create ~max_fds:2 () in
  let pairs = Array.init 3 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0) in
  let fd i = fst pairs.(i) in
  Reactor.on_readable reactor (fd 0) ignore;
  Reactor.on_readable reactor (fd 1) ignore;
  (* replacing a registered descriptor is not a new registration *)
  Reactor.on_readable reactor (fd 1) ignore;
  (match Reactor.on_readable reactor (fd 2) ignore with
  | () -> Alcotest.fail "registration beyond max_fds accepted"
  | exception Failure _ -> ());
  Reactor.remove reactor (fd 0);
  Reactor.on_readable reactor (fd 2) ignore;
  Array.iter
    (fun (a, b) ->
      Unix.close a;
      Unix.close b)
    pairs

(* --- multicast and sharded sessions -------------------------------------- *)

let test_multicast_session () =
  if not (Udp_multicast.is_available ()) then ()
  else begin
    let data = payloads ~count:48 ~size:config.Udp.payload_size 21 in
    let report =
      Udp.run_local_exn ~config ~transport:`Multicast ~receivers:3 ~loss:0.1 ~seed:22
        ~data ()
    in
    Alcotest.(check bool) "verified over real multicast" true report.Udp.verified;
    Alcotest.(check int) "all receivers" 3 report.Udp.completed;
    Alcotest.(check bool) "loss actually injected" true (report.Udp.datagrams_dropped > 0);
    Alcotest.(check bool) "parity repair used" true (report.Udp.parity_tx > 0)
  end

let test_multicast_group_derivation () =
  let g1 = Udp_multicast.group_of_seed 1 and g2 = Udp_multicast.group_of_seed 2 in
  Alcotest.(check bool) "distinct seeds, distinct groups" true (g1 <> g2);
  List.iter
    (fun (g : Udp_multicast.group) ->
      Alcotest.(check bool) "administratively scoped" true
        (String.length g.address > 8 && String.sub g.address 0 8 = "239.255.");
      Alcotest.(check bool) "port in range" true (g.port >= 20000 && g.port < 20000 + 32768))
    [ g1; g2 ]

let test_sharded_run () =
  let sessions =
    Array.init 4 (fun s -> payloads ~count:24 ~size:config.Udp.payload_size (100 + s))
  in
  let metrics = Metrics.create () in
  let report =
    Rmcast.Error.get_exn
      (Udp.run_multi ~config ~metrics ~shards:3 ~receivers:2 ~loss:0.05 ~seed:7 ~sessions ())
  in
  Alcotest.(check bool) "all sessions verified" true report.Udp.all_verified;
  Alcotest.(check int) "one report per session" 4 (Array.length report.Udp.session_reports);
  Array.iteri
    (fun sid s ->
      Alcotest.(check int) "global sid preserved" sid s.Udp.session;
      Alcotest.(check int) "completed by both receivers" 2 s.Udp.completed;
      Alcotest.(check bool)
        (Printf.sprintf "session %d sender counters scoped" sid)
        true
        (Metrics.get metrics (Printf.sprintf "session.%d.tx.data" sid) = 24);
      Alcotest.(check int)
        (Printf.sprintf "session %d tx.data mirrors its report" sid)
        s.Udp.data_tx
        (Metrics.get metrics (Printf.sprintf "session.%d.tx.data" sid)))
    report.Udp.session_reports;
  (* Each shard publishes its receivers' counts once: the shared counters
     sum to the merged report. *)
  Alcotest.(check int) "rx.naks_tx sums the shards" report.Udp.naks_sent
    (Metrics.get metrics "rx.naks_tx");
  Alcotest.(check int) "rx.loss_dropped sums the shards" report.Udp.datagrams_dropped
    (Metrics.get metrics "rx.loss_dropped");
  (* more shards than sessions clamps instead of spawning idle domains *)
  let clamped =
    Rmcast.Error.get_exn
      (Udp.run_multi ~config ~shards:16 ~receivers:1 ~loss:0.0 ~seed:8
         ~sessions:(Array.sub sessions 0 2) ())
  in
  Alcotest.(check bool) "clamped shard count verified" true clamped.Udp.all_verified

let test_sharded_multicast () =
  if not (Udp_multicast.is_available ()) then ()
  else begin
    let sessions =
      Array.init 2 (fun s -> payloads ~count:16 ~size:config.Udp.payload_size (200 + s))
    in
    let report =
      Rmcast.Error.get_exn
        (Udp.run_multi ~config ~transport:`Multicast ~shards:2 ~receivers:2 ~loss:0.0
           ~seed:9 ~sessions ())
    in
    Alcotest.(check bool) "sharded multicast verified" true report.Udp.all_verified
  end

let test_shards_rejected () =
  let sessions =
    Array.init 2 (fun s -> payloads ~count:8 ~size:config.Udp.payload_size (300 + s))
  in
  let expect_error what = function
    | Ok _ -> Alcotest.fail (what ^ ": expected Error")
    | Error e ->
      Alcotest.(check bool)
        (what ^ " reported by run_multi")
        true
        (String.starts_with ~prefix:"Udp_np.run_multi:" (Rmcast.Error.to_string e))
  in
  expect_error "zero shards"
    (Udp.run_multi ~config ~shards:0 ~receivers:1 ~loss:0.0 ~seed:10 ~sessions ());
  (* A recorder is not domain-safe: two shards over two sessions must be
     refused before the engine opens a single socket — no descriptor is
     held and no reactor ever registered a counter. *)
  let before = open_fds () in
  let metrics = Metrics.create () in
  expect_error "recorder across shards"
    (Udp.run_multi ~config ~metrics ~recorder:(Rmcast.Recorder.create ()) ~shards:2
       ~receivers:2 ~loss:0.0 ~seed:11 ~sessions ());
  Alcotest.(check int) "no socket opened" before (open_fds ());
  Alcotest.(check int) "engine never started" 0 (List.length (Metrics.counters metrics))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- catch-up pacing ------------------------------------------------- *)

(* A lossless 8-receiver run at [spacing]: it verifies, and the run's
   pool was quiescent at the end ([run_engine] asserts it before
   reporting). *)
let paced_run ~spacing ~packets =
  let data = payloads ~count:packets ~size:config.Udp.payload_size 17 in
  let config = { config with Udp.spacing; linger = 0.0 } in
  let report = Udp.run_local_exn ~config ~receivers:8 ~loss:0.0 ~seed:18 ~data () in
  Alcotest.(check bool) "verified" true report.Udp.verified;
  Alcotest.(check int) "all receivers" 8 report.Udp.completed;
  report

(* A sender behind a 1 us schedule sends every due packet in one pump, so
   its messages coalesce: at most half as many datagrams as message
   copies. *)
let test_catch_up_coalesces () =
  let report = paced_run ~spacing:1e-6 ~packets:400 in
  let copies = (report.Udp.data_tx + report.Udp.parity_tx + report.Udp.polls) * 8 in
  let datagrams = List.assoc "udp.datagrams_tx" report.Udp.counters in
  Alcotest.(check bool)
    (Printf.sprintf "%d datagrams for %d message copies" datagrams copies)
    true
    (2 * datagrams <= copies)

(* Catching up never runs ahead of the schedule: 20 packets 2 ms apart
   take at least 19 intervals. *)
let test_pacing_holds_schedule () =
  let report = paced_run ~spacing:2e-3 ~packets:20 in
  Alcotest.(check bool)
    (Printf.sprintf "wall %.4f s >= 19 x 2 ms" report.Udp.wall_seconds)
    true
    (report.Udp.wall_seconds >= 19.0 *. 2e-3)

(* [rmc serve --transport udp] at its defaults (8 sessions x 100
   receivers) once stalled: a zero-delay sender pump starved the reactor's
   poll, receiver sockets overflowed and lost POLLs left every session
   waiting for the timeout.  Now every session verifies and the kernel
   drops nothing. *)
let test_serve_defaults_verify () =
  let rmc = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rmc.exe" in
  let log = Filename.temp_file "rmc-serve" ".log" in
  let status =
    Sys.command
      (Printf.sprintf "%s serve --transport udp --metrics > %s 2>&1" (Filename.quote rmc)
         (Filename.quote log))
  in
  let output = In_channel.with_open_text log In_channel.input_all in
  Sys.remove log;
  Alcotest.(check int) ("exit status: " ^ output) 0 status;
  Alcotest.(check bool) "all sessions verified" true (contains output "all verified : true");
  let counter name =
    Scanf.sscanf (List.find (fun line -> contains line name) (String.split_on_char '\n' output))
      " %s %d" (fun _ value -> value)
  in
  Alcotest.(check int) "datagrams received = sent" (counter "udp.datagrams_tx")
    (counter "udp.datagrams_rx")

(* The CLI surfaces the same refusal: [rmc serve --shards 2 --capture F]
   exits non-zero and leaves no capture behind; [--faults] is refused the
   same way.  With one session, a fault storm's capture replays. *)
let test_serve_capture_needs_one_shard () =
  let rmc = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rmc.exe" in
  Alcotest.(check bool) "rmc built" true (Sys.file_exists rmc);
  let capture =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rmc-shards-%d.rmcrec" (Unix.getpid ()))
  in
  let log = Filename.temp_file "rmc-serve" ".log" in
  let rmc_run args =
    let status =
      Sys.command
        (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote rmc) args (Filename.quote log))
    in
    (status, In_channel.with_open_text log In_channel.input_all)
  in
  if Sys.file_exists capture then Sys.remove capture;
  let status, output =
    rmc_run
      (Printf.sprintf "serve --transport udp --shards 2 --capture %s" (Filename.quote capture))
  in
  Alcotest.(check bool) "non-zero exit" true (status <> 0);
  Alcotest.(check bool) "refused by run_multi" true
    (contains output "Udp_np.run_multi:");
  Alcotest.(check bool) "no capture written" false (Sys.file_exists capture);
  let faults = "--faults drop=0.05,seed=7" in
  let status, _ = rmc_run ("serve " ^ faults) in
  Alcotest.(check int) "faults need --transport udp" 124 status;
  let status, output = rmc_run ("serve --transport udp -n 2 --shards 2 " ^ faults) in
  Alcotest.(check bool) "faults across shards: non-zero exit" true (status <> 0);
  Alcotest.(check bool) "faults across shards refused by run_multi" true
    (contains output "Udp_np.run_multi:");
  let status, output =
    rmc_run
      (Printf.sprintf "serve --transport udp -n 1 -r 2 %s --capture %s" faults
         (Filename.quote capture))
  in
  Alcotest.(check int) ("faulted one-session run: " ^ output) 0 status;
  let status, output = rmc_run ("replay " ^ Filename.quote capture) in
  Alcotest.(check int) ("faulted capture replays: " ^ output) 0 status;
  Sys.remove capture;
  Sys.remove log

let suite =
  [
    Alcotest.test_case "udp_batch send/recv roundtrip" `Quick test_udp_batch_roundtrip;
    Alcotest.test_case "udp_batch counts kernel entries" `Quick test_udp_batch_counts_entries;
    Alcotest.test_case "coalesced frame walk" `Quick test_frame_walk;
    Alcotest.test_case "drain survives oversized datagram" `Quick
      test_drain_oversized_datagram;
    Alcotest.test_case "one ring drains two sockets, no payload aliases a slot" `Quick
      test_shared_ring_two_sockets;
    Alcotest.test_case "drain: frame cut inside its last message" `Quick
      test_drain_truncated_frame;
    Alcotest.test_case "no fd leak when engine bring-up fails" `Quick
      test_no_fd_leak_on_failed_run;
    Alcotest.test_case "metrics exact under domain hammer" `Quick
      test_metrics_domain_hammer;
    Alcotest.test_case "reactor FD_SETSIZE guard" `Quick test_reactor_max_fds_guard;
    Alcotest.test_case "multicast group derivation" `Quick test_multicast_group_derivation;
    Alcotest.test_case "udp session over real multicast" `Quick test_multicast_session;
    Alcotest.test_case "sharded multi-session run" `Quick test_sharded_run;
    Alcotest.test_case "sharded multicast run" `Quick test_sharded_multicast;
    Alcotest.test_case "shards: zero and unsafe sinks rejected" `Quick test_shards_rejected;
    Alcotest.test_case "serve --capture needs one shard" `Quick
      test_serve_capture_needs_one_shard;
    Alcotest.test_case "catch-up pacing coalesces" `Quick test_catch_up_coalesces;
    Alcotest.test_case "catch-up pacing holds the schedule" `Quick
      test_pacing_holds_schedule;
    Alcotest.test_case "serve udp defaults: all verify" `Quick test_serve_defaults_verify;
  ]
