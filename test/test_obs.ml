module Metrics = Rmcast.Metrics
module Fault = Rmcast.Fault
module Header = Rmcast.Header

(* --- metrics ----------------------------------------------------------- *)

let test_counters () =
  let m = Metrics.create () in
  let a = Metrics.counter m "tx.data" in
  Metrics.incr a;
  Metrics.incr ~by:4 a;
  Alcotest.(check int) "count" 5 (Metrics.count a);
  Alcotest.(check int) "get" 5 (Metrics.get m "tx.data");
  Alcotest.(check int) "absent reads zero" 0 (Metrics.get m "no.such");
  let a' = Metrics.counter m "tx.data" in
  Metrics.incr a';
  Alcotest.(check int) "same handle" 6 (Metrics.count a);
  Metrics.incr (Metrics.counter m "rx.data");
  Alcotest.(check (list (pair string int)))
    "sorted dump"
    [ ("rx.data", 1); ("tx.data", 6) ]
    (Metrics.counters m)

let test_gauges () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "queue.depth" in
  Alcotest.(check (float 0.0)) "fresh gauge" 0.0 (Metrics.value g);
  Metrics.set g 3.5;
  Metrics.set g 2.0;
  Alcotest.(check (float 0.0)) "last write wins" 2.0 (Metrics.value g);
  Alcotest.(check (float 0.0)) "by name" 2.0 (Metrics.get_gauge m "queue.depth");
  Alcotest.(check (float 0.0)) "absent gauge" 0.0 (Metrics.get_gauge m "no.such")

let test_handle_name_equivalence () =
  (* The hot paths resolve handles once at setup and bump them thereafter;
     the observation side keeps using by-name lookups.  The two views must
     agree exactly — including through scopes, where the by-name path
     concatenates the prefix on every call. *)
  let m = Metrics.create () in
  let scoped = Metrics.scope m "session.3" in
  let handle = Metrics.counter scoped "tx.data" in
  Metrics.incr ~by:7 handle;
  Alcotest.(check int) "scoped by-name sees handle bumps" 7 (Metrics.get scoped "tx.data");
  Alcotest.(check int) "root by-name sees the full name" 7 (Metrics.get m "session.3.tx.data");
  Metrics.incr ~by:2 (Metrics.counter m "session.3.tx.data");
  Alcotest.(check int) "by-name bumps reach the handle" 9 (Metrics.count handle);
  let g = Metrics.gauge scoped "pool.peak_outstanding" in
  Metrics.set g 4.0;
  Alcotest.(check (float 0.0))
    "gauge handle/name equivalence" 4.0
    (Metrics.get_gauge m "session.3.pool.peak_outstanding")

(* --- fault specs ------------------------------------------------------- *)

let spec_exn text =
  match Fault.spec_of_string text with
  | Ok spec -> spec
  | Error message -> Alcotest.failf "spec %S rejected: %s" text message

let test_spec_roundtrip () =
  let spec = spec_exn "drop=0.1,dup=0.05,reorder=0.02,delay=0.001:0.01,corrupt=0.01,seed=7" in
  Alcotest.(check string)
    "normalized" "drop=0.1,dup=0.05,reorder=0.02,delay=0.001:0.01,corrupt=0.01,seed=7"
    (Fault.spec_to_string spec);
  let again = spec_exn (Fault.spec_to_string spec) in
  Alcotest.(check string) "stable" (Fault.spec_to_string spec) (Fault.spec_to_string again);
  (match spec_exn "drop=burst:0.1:4:1000,seed=3" with
  | { Fault.drop = Fault.Drop_burst { p; mean_burst; rate }; _ } ->
    Alcotest.(check (float 1e-9)) "burst p" 0.1 p;
    Alcotest.(check (float 1e-9)) "burst len" 4.0 mean_burst;
    Alcotest.(check (float 1e-9)) "burst rate" 1000.0 rate
  | _ -> Alcotest.fail "burst spec not parsed as Drop_burst");
  (* single-value delay becomes a degenerate range *)
  match spec_exn "delay=0.004" with
  | { Fault.delay = Some (lo, hi); _ } ->
    Alcotest.(check (float 1e-9)) "delay lo" 0.004 lo;
    Alcotest.(check (float 1e-9)) "delay hi" 0.004 hi
  | _ -> Alcotest.fail "delay spec not parsed"

let test_spec_errors () =
  let rejected text =
    match Fault.spec_of_string text with
    | Ok _ -> Alcotest.failf "spec %S accepted" text
    | Error _ -> ()
  in
  rejected "drop=1.5";
  rejected "drop=banana";
  rejected "frobnicate=1";
  rejected "drop";
  rejected "delay=0.01:0.001:5";
  rejected "corrupt=-0.1";
  rejected "seed=x";
  rejected "dup=nan";
  rejected "drop=nan";
  rejected "delay=nan";
  rejected "delay=inf";
  rejected "delay=0:inf";
  rejected "drop=burst:0.1:inf:1000";
  rejected "drop=burst:0.9:2:1000"

(* --- fault shim -------------------------------------------------------- *)

(* Synchronous harness: every deferred thunk runs immediately, sends are
   collected in order. *)
let feed spec ~packets ~size =
  let shim = Fault.create spec in
  let rng = Rmcast.Rng.create ~seed:99 () in
  let sent = ref [] in
  for i = 0 to packets - 1 do
    let packet = Bytes.init size (fun _ -> Char.chr (Rmcast.Rng.int rng 256)) in
    Fault.apply shim
      ~now:(float_of_int i *. 0.001)
      ~defer:(fun _d thunk -> thunk ())
      ~send:(fun bytes -> sent := bytes :: !sent)
      packet
  done;
  (Fault.stats shim, List.rev !sent)

let test_shim_passthrough () =
  let stats, sent = feed Fault.none ~packets:50 ~size:32 in
  Alcotest.(check int) "injected" 50 stats.Fault.injected;
  Alcotest.(check int) "delivered" 50 stats.Fault.delivered;
  Alcotest.(check int) "nothing dropped" 0 stats.Fault.dropped;
  Alcotest.(check int) "nothing corrupted" 0 stats.Fault.corrupted;
  Alcotest.(check int) "all sent" 50 (List.length sent)

let test_shim_deterministic () =
  let spec = spec_exn "drop=0.2,dup=0.1,reorder=0.1,corrupt=0.1,seed=21" in
  let s1, sent1 = feed spec ~packets:400 ~size:48 in
  let s2, sent2 = feed spec ~packets:400 ~size:48 in
  Alcotest.(check int) "dropped reproducible" s1.Fault.dropped s2.Fault.dropped;
  Alcotest.(check int) "corrupted reproducible" s1.Fault.corrupted s2.Fault.corrupted;
  Alcotest.(check bool) "byte-identical output" true
    (List.for_all2 Bytes.equal sent1 sent2)

let test_shim_drop_rate () =
  let stats, _ = feed (spec_exn "drop=0.3,seed=5") ~packets:2000 ~size:16 in
  let rate = float_of_int stats.Fault.dropped /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f within 0.25..0.35" rate)
    true
    (rate > 0.25 && rate < 0.35);
  Alcotest.(check int) "accounting" stats.Fault.injected
    (stats.Fault.dropped + stats.Fault.delivered)

let test_shim_duplicate () =
  let stats, sent = feed (spec_exn "dup=0.5,seed=13") ~packets:500 ~size:16 in
  Alcotest.(check bool) "duplicates happened" true (stats.Fault.duplicated > 100);
  Alcotest.(check int) "delivered = injected + duplicates"
    (stats.Fault.injected + stats.Fault.duplicated)
    (List.length sent)

let test_shim_corrupt_all_detected () =
  (* Every datagram corrupted; every emitted byte-string must fail the
     header CRC check — this is the property the NP integration test
     relies on. *)
  let shim = Fault.create (spec_exn "corrupt=1,seed=3") in
  let failures = ref 0 and emitted = ref 0 in
  for i = 0 to 199 do
    let payload = Bytes.make 64 (Char.chr (i land 0xFF)) in
    let packet = Header.encode (Header.Data { tg_id = i; k = 8; index = i mod 8; payload }) in
    Fault.apply shim
      ~now:(float_of_int i *. 0.001)
      ~defer:(fun _d thunk -> thunk ())
      ~send:(fun bytes ->
        incr emitted;
        match Header.decode bytes with Ok _ -> () | Error _ -> incr failures)
      packet
  done;
  let stats = Fault.stats shim in
  Alcotest.(check int) "every datagram corrupted" 200 stats.Fault.corrupted;
  Alcotest.(check int) "every emitted copy detected" !emitted !failures

let test_shim_reorder_keeps_everything () =
  let stats, sent = feed (spec_exn "reorder=0.3,seed=8") ~packets:300 ~size:16 in
  Alcotest.(check bool) "reordering happened" true (stats.Fault.reordered > 30);
  (* Holds only defer delivery; nothing may be lost. *)
  Alcotest.(check int) "no datagram lost" 300 (List.length sent)

let suite =
  [
    Alcotest.test_case "metrics counters" `Quick test_counters;
    Alcotest.test_case "metrics gauges" `Quick test_gauges;
    Alcotest.test_case "handle/name equivalence" `Quick test_handle_name_equivalence;
    Alcotest.test_case "fault spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "fault spec errors" `Quick test_spec_errors;
    Alcotest.test_case "fault shim pass-through" `Quick test_shim_passthrough;
    Alcotest.test_case "fault shim deterministic" `Quick test_shim_deterministic;
    Alcotest.test_case "fault shim drop rate" `Quick test_shim_drop_rate;
    Alcotest.test_case "fault shim duplication" `Quick test_shim_duplicate;
    Alcotest.test_case "fault shim corruption detected by CRC" `Quick
      test_shim_corrupt_all_detected;
    Alcotest.test_case "fault shim reorder loses nothing" `Quick
      test_shim_reorder_keeps_everything;
  ]
