module Udp = Rmcast.Udp_np
module Reactor = Rmcast.Reactor

let payloads ~count ~size seed =
  let rng = Rmcast.Rng.create ~seed () in
  Array.init count (fun _ -> Bytes.init size (fun _ -> Char.chr (Rmcast.Rng.int rng 256)))

let config = { Udp.default_config with session_timeout = 20.0 }

let test_lossless_session () =
  let data = payloads ~count:40 ~size:config.Udp.payload_size 1 in
  let report = Udp.run_local_exn ~config ~receivers:3 ~loss:0.0 ~seed:2 ~data () in
  Alcotest.(check bool) "verified" true report.Udp.verified;
  Alcotest.(check int) "all receivers" 3 report.Udp.completed;
  Alcotest.(check int) "data once each" 40 report.Udp.data_tx;
  Alcotest.(check int) "no parities" 0 report.Udp.parity_tx;
  Alcotest.(check int) "no NAKs" 0 report.Udp.naks_sent;
  Alcotest.(check int) "nothing dropped" 0 report.Udp.datagrams_dropped

let test_lossy_session_recovers () =
  let data = payloads ~count:64 ~size:config.Udp.payload_size 3 in
  let report = Udp.run_local_exn ~config ~receivers:5 ~loss:0.1 ~seed:4 ~data () in
  Alcotest.(check bool) "verified" true report.Udp.verified;
  Alcotest.(check int) "all receivers" 5 report.Udp.completed;
  Alcotest.(check bool) "loss actually injected" true (report.Udp.datagrams_dropped > 0);
  Alcotest.(check int) "rx.loss_dropped mirrors report" report.Udp.datagrams_dropped
    (List.assoc "rx.loss_dropped" report.Udp.counters);
  Alcotest.(check bool) "parity repair used" true (report.Udp.parity_tx > 0);
  Alcotest.(check (list (pair int int))) "nobody ejected" [] report.Udp.ejected

(* A receiver is finished once it has resolved every TG, ejected ones
   included: a run whose repair budget runs out ends on its receivers'
   Done, not at [session_timeout]. *)
let test_ejecting_session_ends_early () =
  let config = { Udp.default_config with h = 1; proactive = 0; session_timeout = 5.0 } in
  let data = payloads ~count:64 ~size:config.Udp.payload_size 15 in
  let report = Udp.run_local_exn ~config ~receivers:4 ~loss:0.3 ~seed:16 ~data () in
  Alcotest.(check bool) "somebody ejected" true (report.Udp.ejected <> []);
  Alcotest.(check bool) "not verified" false report.Udp.verified;
  Alcotest.(check bool)
    (Printf.sprintf "returned in %.3f s, under half the timeout" report.Udp.wall_seconds)
    true
    (report.Udp.wall_seconds < config.Udp.session_timeout /. 2.0);
  Alcotest.(check (list (pair int int))) "ejections in (receiver, local TG) order"
    (List.sort_uniq compare report.Udp.ejected)
    report.Udp.ejected

let test_single_receiver_high_loss () =
  let data = payloads ~count:32 ~size:config.Udp.payload_size 5 in
  let report = Udp.run_local_exn ~config ~receivers:1 ~loss:0.25 ~seed:6 ~data () in
  Alcotest.(check bool) "verified" true report.Udp.verified

let test_determinism_of_injected_loss () =
  (* Same seed, same loss pattern: the drop counter is reproducible even
     though wall-clock timing is not. *)
  let data = payloads ~count:16 ~size:config.Udp.payload_size 7 in
  let r1 = Udp.run_local_exn ~config ~receivers:2 ~loss:0.2 ~seed:8 ~data () in
  let r2 = Udp.run_local_exn ~config ~receivers:2 ~loss:0.2 ~seed:8 ~data () in
  Alcotest.(check bool) "both verified" true (r1.Udp.verified && r2.Udp.verified);
  (* drops depend only on the per-receiver RNG stream over received data
     packets; retransmission counts may differ slightly, so compare loosely *)
  Alcotest.(check bool) "drop counts comparable" true
    (abs (r1.Udp.datagrams_dropped - r2.Udp.datagrams_dropped)
    <= (r1.Udp.datagrams_dropped + r2.Udp.datagrams_dropped) / 2 + 4)

let test_validation () =
  Alcotest.check_raises "empty data" (Invalid_argument "Udp_np.run_local: no data") (fun () ->
      ignore (Udp.run_local_exn ~receivers:1 ~loss:0.0 ~seed:0 ~data:[||] ()));
  Alcotest.check_raises "bad loss" (Invalid_argument "Udp_np.run_local: loss outside [0,1)")
    (fun () ->
      ignore
        (Udp.run_local_exn ~receivers:1 ~loss:1.0 ~seed:0
           ~data:(payloads ~count:1 ~size:Udp.default_config.Udp.payload_size 9)
           ()));
  (* Profile rules the machine constructors enforce, and fault specs the
     shim would refuse, come back as [Error], before any socket is
     opened. *)
  let data = payloads ~count:4 ~size:config.Udp.payload_size 10 in
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let refused name ~context run =
    let before = open_fds () in
    (match run () with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error e -> Alcotest.(check string) (name ^ ": context") context e.Rmcast.Error.context);
    Alcotest.(check int) (name ^ ": no socket opened") before (open_fds ())
  in
  List.iter
    (fun (name, config, faults) ->
      refused name ~context:"Udp_np.run_local" (fun () ->
          Udp.run_local ~config ?faults ~receivers:2 ~loss:0.0 ~seed:11 ~data ()))
    [
      ("proactive > h", { config with proactive = 20 }, None);
      ("zero slot", { config with slot = 0.0 }, None);
      ("zero spacing", { config with spacing = 0.0 }, None);
      ("duplicate 1.5", config, Some { Rmcast.Fault.none with duplicate = 1.5 });
      ("infinite delay", config, Some { Rmcast.Fault.none with delay = Some (0.0, infinity) });
    ];
  refused "run_multi duplicate 1.5" ~context:"Udp_np.run_multi" (fun () ->
      Udp.run_multi ~config ~faults:{ Rmcast.Fault.none with duplicate = 1.5 } ~receivers:2
        ~loss:0.0 ~seed:11 ~sessions:[| data |] ())

let counter (report : Udp.report) name =
  match List.assoc_opt name report.Udp.counters with Some v -> v | None -> 0

let test_fault_storm_session () =
  (* The acceptance test of the fault-injection shim: NP must run to
     completion with every byte intact while the shim drops, duplicates,
     reorders, delays and corrupts data/parity datagrams at the sender
     boundary — and the rmc_obs counters must tell a consistent story. *)
  let faults =
    match
      Rmcast.Fault.spec_of_string
        "drop=0.08,dup=0.05,reorder=0.05,delay=0:0.002,corrupt=0.05,seed=31"
    with
    | Ok spec -> spec
    | Error message -> Alcotest.fail message
  in
  let data = payloads ~count:64 ~size:config.Udp.payload_size 11 in
  let report = Udp.run_local_exn ~config ~faults ~receivers:3 ~loss:0.0 ~seed:12 ~data () in
  Alcotest.(check int) "all receivers completed" 3 report.Udp.completed;
  Alcotest.(check bool) "delivered bytes verified" true report.Udp.verified;
  Alcotest.(check (list (pair int int))) "nobody ejected" [] report.Udp.ejected;
  (* the storm actually happened... *)
  Alcotest.(check bool) "datagrams injected" true (counter report "fault.injected" > 0);
  Alcotest.(check bool) "drops injected" true (counter report "fault.dropped" > 0);
  Alcotest.(check bool) "duplicates injected" true (counter report "fault.duplicated" > 0);
  Alcotest.(check bool) "corruption injected" true (counter report "fault.corrupted" > 0);
  (* ...was observed... *)
  Alcotest.(check bool) "corruption caught by CRC" true
    (counter report "rx.decode_failures" > 0);
  Alcotest.(check bool) "repair rounds ran" true
    (counter report "sender.repair_rounds" > 0);
  Alcotest.(check bool) "parity repair used" true (report.Udp.parity_tx > 0);
  (* ...and the books balance: receivers can only fail to decode datagrams
     the shim actually mangled (control datagrams bypass the shim), and the
     report mirrors the counter registry. *)
  Alcotest.(check bool) "decode failures bounded by corrupt copies" true
    (counter report "rx.decode_failures" <= counter report "fault.corrupt_copies");
  Alcotest.(check int) "report mirrors registry"
    (counter report "rx.decode_failures")
    report.Udp.decode_failures;
  Alcotest.(check int) "tx counters mirror report" report.Udp.data_tx
    (counter report "tx.data");
  List.iter
    (fun (name, reported) ->
      Alcotest.(check int) (name ^ " mirrors report") reported (counter report name))
    [
      ("tx.parity", report.Udp.parity_tx);
      ("tx.poll", report.Udp.polls);
      ("rx.naks_tx", report.Udp.naks_sent);
      ("rx.naks_suppressed", report.Udp.naks_suppressed);
      ("rx.loss_dropped", report.Udp.datagrams_dropped);
    ]

let test_metrics_registry_shared () =
  let metrics = Rmcast.Metrics.create () in
  let data = payloads ~count:16 ~size:config.Udp.payload_size 13 in
  let report = Udp.run_local_exn ~config ~metrics ~receivers:2 ~loss:0.0 ~seed:14 ~data () in
  Alcotest.(check bool) "verified" true report.Udp.verified;
  Alcotest.(check int) "caller registry sees tx.data" report.Udp.data_tx
    (Rmcast.Metrics.get metrics "tx.data");
  Alcotest.(check int) "report dump matches registry"
    (List.length (Rmcast.Metrics.counters metrics))
    (List.length report.Udp.counters)

(* Every datagram the driver sends leaves through a batched flush, NAK
   fan-out and fault-shim output included.  Natively ([sendmmsg]) a flush
   is one syscall for up to 64 datagrams, so with 8 unicast receivers
   every flush carries at least a whole fan-out; the portable fallback is
   one syscall per datagram by design, so there is nothing to check. *)
let sends_per_syscall ?faults ~loss () =
  let data = payloads ~count:64 ~size:config.Udp.payload_size 19 in
  let report = Udp.run_local_exn ~config ?faults ~receivers:8 ~loss ~seed:20 ~data () in
  Alcotest.(check bool) "verified" true report.Udp.verified;
  (report, counter report "udp.datagrams_tx", counter report "udp.syscalls_tx")

let test_nak_fanout_batched () =
  if Rmcast.Udp_batch.native then begin
    let report, datagrams, syscalls = sends_per_syscall ~loss:0.05 () in
    Alcotest.(check bool) "NAKs sent" true (counter report "rx.naks_tx" > 0);
    Alcotest.(check bool)
      (Printf.sprintf "%d send syscalls for %d datagrams" syscalls datagrams)
      true
      (8 * syscalls <= datagrams)
  end

let test_shim_sends_batched () =
  if Rmcast.Udp_batch.native then begin
    let faults = Result.get_ok (Rmcast.Fault.spec_of_string "drop=0.05,seed=9") in
    let _, datagrams, syscalls = sends_per_syscall ~faults ~loss:0.0 () in
    Alcotest.(check bool)
      (Printf.sprintf "%d send syscalls for %d datagrams" syscalls datagrams)
      true
      (2 * syscalls <= datagrams)
  end

(* --- reactor unit tests --- *)

let test_reactor_timer_order () =
  let reactor = Reactor.create () in
  let log = ref [] in
  ignore (Reactor.after reactor 0.02 (fun () -> log := 2 :: !log));
  ignore (Reactor.after reactor 0.01 (fun () -> log := 1 :: !log));
  ignore (Reactor.after reactor 0.03 (fun () -> log := 3 :: !log));
  Reactor.run reactor;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_reactor_cancel () =
  let reactor = Reactor.create () in
  let fired = ref false in
  let timer = Reactor.after reactor 0.01 (fun () -> fired := true) in
  Reactor.cancel timer;
  Reactor.run reactor;
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check bool) "flag" true (Reactor.cancelled timer)

let test_reactor_stop () =
  let reactor = Reactor.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count >= 3 then Reactor.stop reactor else ignore (Reactor.after reactor 0.001 tick)
  in
  ignore (Reactor.after reactor 0.001 tick);
  ignore (Reactor.after reactor 10.0 (fun () -> count := 1000));
  Reactor.run reactor;
  Alcotest.(check int) "stopped at 3" 3 !count

let test_reactor_deadline () =
  let reactor = Reactor.create () in
  let fired = ref false in
  ignore (Reactor.after reactor 5.0 (fun () -> fired := true));
  let start = Unix.gettimeofday () in
  Reactor.run ~deadline:(start +. 0.05) reactor;
  Alcotest.(check bool) "deadline respected" false !fired;
  Alcotest.(check bool) "returned promptly" true (Unix.gettimeofday () -. start < 1.0)

let test_reactor_fd_event () =
  let reactor = Reactor.create () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  let received = ref "" in
  Reactor.on_readable reactor a (fun () ->
      let buffer = Bytes.create 64 in
      let n = Unix.recv a buffer 0 64 [] in
      received := Bytes.sub_string buffer 0 n;
      Reactor.remove reactor a;
      Reactor.stop reactor);
  ignore (Reactor.after reactor 0.005 (fun () -> ignore (Unix.send b (Bytes.of_string "ping") 0 4 [])));
  Reactor.run ~deadline:(Unix.gettimeofday () +. 2.0) reactor;
  Unix.close a;
  Unix.close b;
  Alcotest.(check string) "datagram delivered" "ping" !received

(* A socket pair with one datagram already queued on [a]; the readable
   callback drains it, logs "read" and unregisters. *)
let pending_datagram reactor log =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  ignore (Unix.send b (Bytes.of_string "ping") 0 4 []);
  Reactor.on_readable reactor a (fun () ->
      ignore (Unix.recv a (Bytes.create 64) 0 64 []);
      log := "read" :: !log;
      Reactor.remove reactor a);
  (a, b)

(* A timer that re-arms itself at zero delay must not starve the sockets:
   each pass fires at most one due timer, then polls. *)
let test_reactor_timer_cannot_starve_sockets () =
  let reactor = Reactor.create () in
  let log = ref [] in
  let a, b = pending_datagram reactor log in
  let fires = ref 0 in
  let rec rearm () =
    incr fires;
    log := Printf.sprintf "fire %d" !fires :: !log;
    if !fires < 1000 then ignore (Reactor.after reactor 0.0 rearm)
  in
  ignore (Reactor.after reactor 0.0 rearm);
  Reactor.run ~deadline:(Unix.gettimeofday () +. 5.0) reactor;
  Unix.close a;
  Unix.close b;
  Alcotest.(check int) "every firing ran" 1000 !fires;
  Alcotest.(check (list string)) "the read lands before the second firing"
    [ "fire 1"; "read"; "fire 2" ]
    (List.filteri (fun i _ -> i < 3) (List.rev !log))

(* Two timers due at once still fire in time order, one per pass, with the
   pending readable callback between them. *)
let test_reactor_due_timers_interleave_polls () =
  let reactor = Reactor.create () in
  let log = ref [] in
  let a, b = pending_datagram reactor log in
  ignore (Reactor.after reactor 0.002 (fun () -> log := "second" :: !log));
  ignore (Reactor.after reactor 0.001 (fun () -> log := "first" :: !log));
  Unix.sleepf 0.01;
  Reactor.run ~deadline:(Unix.gettimeofday () +. 5.0) reactor;
  Unix.close a;
  Unix.close b;
  Alcotest.(check (list string)) "time order, poll between" [ "first"; "read"; "second" ]
    (List.rev !log)

let test_reactor_heap_leak () =
  (* Regression: cancelled timers used to sit in the heap until their
     original expiry — a long-lived session that arms and cancels a NAK
     timer per TG accumulated every one of them.  Now cancellation prunes
     eagerly, so the heap stays O(live). *)
  let reactor = Reactor.create () in
  let keeper = Reactor.after reactor 0.001 (fun () -> ()) in
  for _ = 1 to 10_000 do
    Reactor.cancel (Reactor.after reactor 3600.0 (fun () -> ()))
  done;
  ignore keeper;
  Alcotest.(check bool)
    (Printf.sprintf "heap stays small (pending=%d)" (Reactor.pending_timers reactor))
    true
    (Reactor.pending_timers reactor < 256);
  Reactor.run reactor;
  Alcotest.(check int) "heap empty after run" 0 (Reactor.pending_timers reactor)

let test_reactor_metrics () =
  let metrics = Rmcast.Metrics.create () in
  let reactor = Reactor.create ~metrics () in
  ignore (Reactor.after reactor 0.001 (fun () -> ()));
  ignore (Reactor.after reactor 0.002 (fun () -> ()));
  Reactor.cancel (Reactor.after reactor 0.003 (fun () -> ()));
  Reactor.run reactor;
  Alcotest.(check int) "fires counted" 2 (Rmcast.Metrics.get metrics "reactor.timer_fires");
  Alcotest.(check int) "cancels counted" 1
    (Rmcast.Metrics.get metrics "reactor.timers_cancelled")

(* The wire tg packs the session id high and the local TG index low;
   the decode-side masks never escape 16 bits, and the one TG-count bound
   keeps every local index inside its half. *)
let test_wire_tg_guard () =
  let module Replay = Rmcast.Np_replay in
  let wire = Replay.wire_tg ~sid:3 5 in
  Alcotest.(check int) "packs sid high, local low" ((3 lsl 16) lor 5) wire;
  Alcotest.(check int) "sid roundtrip" 3 (Replay.sid_of_wire wire);
  Alcotest.(check int) "local roundtrip" 5 (Replay.local_of_wire wire);
  let wire = Replay.wire_tg ~sid:0xFFFF 0xFFFF in
  Alcotest.(check (pair int int)) "16-bit boundary packs" (0xFFFF, 0xFFFF)
    (Replay.sid_of_wire wire, Replay.local_of_wire wire);
  Alcotest.(check int) "sid mask on oversized wire id" 0xFFFF
    (Replay.sid_of_wire ((0x7 lsl 32) lor (0xFFFF lsl 16)));
  Alcotest.(check int) "local mask" 0x1234 (Replay.local_of_wire 0xABC1234);
  let packets n = Array.make n Bytes.empty in
  Alcotest.(check bool) "65,536 TGs fit" true (Replay.fits_wire ~k:2 (packets 131_072));
  Alcotest.(check bool) "65,537 TGs do not" false (Replay.fits_wire ~k:2 (packets 131_073))

(* One payload byte changed before the sender seals the datagram: it
   passes the receivers' CRC check, so only the delivery check can tell. *)
let flip_first_byte = function
  | Rmcast.Header.Data ({ tg_id = 0; index = 0; payload; _ } as d) ->
    let payload = Bytes.copy payload in
    Bytes.set payload 0 (Char.chr (Char.code (Bytes.get payload 0) lxor 0x01));
    Rmcast.Header.Data { d with payload }
  | message -> message

let test_corrupt_delivery_detected () =
  let data = payloads ~count:40 ~size:config.Udp.payload_size 9 in
  let run tamper =
    Udp.For_testing.run_local ~config ~tamper ~receivers:3 ~loss:0.0 ~seed:10 ~data ()
  in
  let clean = run Fun.id and tampered = run flip_first_byte in
  Alcotest.(check bool) "untouched run verified" true clean.Udp.verified;
  Alcotest.(check int) "every receiver completed" 3 tampered.Udp.completed;
  Alcotest.(check int) "nothing failed the CRC" 0 tampered.Udp.decode_failures;
  Alcotest.(check bool) "one wrong byte caught" false tampered.Udp.verified

let suite =
  [
    Alcotest.test_case "udp catches a wrong delivered byte" `Quick
      test_corrupt_delivery_detected;
    Alcotest.test_case "reactor timer ordering" `Quick test_reactor_timer_order;
    Alcotest.test_case "reactor cancelled-timer heap leak" `Quick test_reactor_heap_leak;
    Alcotest.test_case "reactor metrics" `Quick test_reactor_metrics;
    Alcotest.test_case "reactor cancel" `Quick test_reactor_cancel;
    Alcotest.test_case "reactor stop" `Quick test_reactor_stop;
    Alcotest.test_case "reactor deadline" `Quick test_reactor_deadline;
    Alcotest.test_case "reactor fd events" `Quick test_reactor_fd_event;
    Alcotest.test_case "reactor: a re-arming timer cannot starve sockets" `Quick
      test_reactor_timer_cannot_starve_sockets;
    Alcotest.test_case "reactor: due timers interleave with polls" `Quick
      test_reactor_due_timers_interleave_polls;
    Alcotest.test_case "udp lossless session" `Quick test_lossless_session;
    Alcotest.test_case "udp lossy session recovers" `Quick test_lossy_session_recovers;
    Alcotest.test_case "udp single receiver, 25% loss" `Quick test_single_receiver_high_loss;
    Alcotest.test_case "udp ejecting session ends on Done" `Quick
      test_ejecting_session_ends_early;
    Alcotest.test_case "udp seeded loss reproducible" `Quick test_determinism_of_injected_loss;
    Alcotest.test_case "udp validation" `Quick test_validation;
    Alcotest.test_case "udp fault-storm session" `Quick test_fault_storm_session;
    Alcotest.test_case "udp shared metrics registry" `Quick test_metrics_registry_shared;
    Alcotest.test_case "udp NAK fan-out leaves in one flush" `Quick test_nak_fanout_batched;
    Alcotest.test_case "udp fault-shim sends are batched" `Quick test_shim_sends_batched;
    Alcotest.test_case "udp wire tg guard" `Quick test_wire_tg_guard;
  ]
