(* Concurrent sessions: N independent transfers interleaved over one
   shared network in virtual time by [Transfer.send_all].  These tests pin
   down the three properties the mux's round-robin scheduling promises —
   fairness (nobody starves), isolation (every session byte-verifies its
   own disjoint payload), and shared-channel realism (per-session counters
   sum to the globals; temporally correlated loss spans session boundaries
   the same way it hits one long-lived session). *)

module Transfer = Rmcast.Transfer
module Profile = Rmcast.Profile
module Np = Rmcast.Np
module Rng = Rmcast.Rng
module Network = Rmcast.Network
module Loss = Rmcast.Loss
module Metrics = Rmcast.Metrics

(* Disjoint payloads: a cross-session mixup cannot byte-verify. *)
let message sid bytes =
  String.init bytes (fun i -> Char.chr ((i * 31 + sid * 97 + 13) mod 256))

let messages ~sessions ~bytes = List.init sessions (fun sid -> message sid bytes)

let send_all ?metrics ~network ~rng messages =
  Rmcast.Error.get_exn (Transfer.send_all ?metrics ~network ~rng messages)

let run ?metrics ~seed ~receivers ~p ~sessions ~bytes () =
  let rng = Rng.create ~seed () in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  send_all ?metrics ~network ~rng:(Rng.split rng) (messages ~sessions ~bytes)

let test_fairness_and_isolation () =
  let n = 8 in
  let summary = run ~seed:101 ~receivers:40 ~p:0.05 ~sessions:n ~bytes:8_000 () in
  Alcotest.(check int) "one result per session" n (List.length summary.Transfer.sessions);
  Alcotest.(check bool) "all verified" true summary.Transfer.all_verified;
  List.iteri
    (fun sid (s : Transfer.session) ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d verified" sid)
        true s.outcome.Transfer.verified;
      Alcotest.(check bool)
        (Printf.sprintf "session %d finishes within makespan" sid)
        true
        (s.finished_at <= summary.Transfer.makespan +. 1e-9))
    summary.Transfer.sessions;
  (* Fairness: identical sessions arbitrated round-robin finish together —
     no session's makespan dominated by another's. *)
  let finishes =
    List.map (fun (s : Transfer.session) -> s.finished_at) summary.Transfer.sessions
  in
  let fmin = List.fold_left Float.min infinity finishes in
  let fmax = List.fold_left Float.max 0.0 finishes in
  Alcotest.(check bool)
    (Printf.sprintf "no starvation (spread %.3f .. %.3f)" fmin fmax)
    true
    (fmax <= 2.0 *. fmin);
  Alcotest.(check int) "total bytes" (8 * 8_000) summary.Transfer.total_bytes;
  Alcotest.(check int) "total bytes sent"
    (List.fold_left
       (fun acc (s : Transfer.session) -> acc + s.outcome.Transfer.bytes_sent)
       0 summary.Transfer.sessions)
    summary.Transfer.total_bytes_sent

let test_counters_sum_to_global () =
  let n = 5 in
  let metrics = Metrics.create () in
  let summary = run ~metrics ~seed:202 ~receivers:30 ~p:0.08 ~sessions:n ~bytes:6_000 () in
  let sum field =
    List.fold_left
      (fun acc (s : Transfer.session) -> acc + field s.outcome.Transfer.report)
      0 summary.Transfer.sessions
  in
  List.iteri
    (fun i (s : Transfer.session) ->
      let report = s.outcome.Transfer.report in
      let get name = Metrics.get metrics (Printf.sprintf "session.%d.%s" i name) in
      Alcotest.(check int) (Printf.sprintf "session %d tx.data" i) report.Np.data_tx
        (get "tx.data");
      Alcotest.(check int)
        (Printf.sprintf "session %d tx.parity" i)
        report.Np.parity_tx (get "tx.parity");
      Alcotest.(check int)
        (Printf.sprintf "session %d naks.sent" i)
        report.Np.naks_sent (get "naks.sent");
      Alcotest.(check int)
        (Printf.sprintf "session %d verified" i)
        (if s.outcome.Transfer.verified then 1 else 0)
        (get "verified"))
    summary.Transfer.sessions;
  (* The scoped counters are slices of one registry: summing the slices
     reproduces the per-report totals. *)
  let scoped_total name =
    List.fold_left
      (fun acc (cname, v) ->
        let suffix = "." ^ name in
        let matches =
          String.length cname > String.length suffix
          && String.sub cname 0 8 = "session."
          && String.sub cname
               (String.length cname - String.length suffix)
               (String.length suffix)
             = suffix
        in
        if matches then acc + v else acc)
      0 (Metrics.counters metrics)
  in
  Alcotest.(check int) "tx.data slices sum to global"
    (sum (fun r -> r.Np.data_tx))
    (scoped_total "tx.data");
  Alcotest.(check int) "tx.parity slices sum to global"
    (sum (fun r -> r.Np.parity_tx))
    (scoped_total "tx.parity");
  Alcotest.(check int) "scheduler.sessions" n (Metrics.get metrics "scheduler.sessions");
  Alcotest.(check (float 1e-9)) "makespan gauge" summary.Transfer.makespan
    (Metrics.get_gauge metrics "scheduler.makespan")

let test_bursty_loss_spans_sessions () =
  (* One engine, one bursty channel: the loss process sees non-decreasing
     timestamps across interleaved sessions, so a burst straddles whichever
     sessions' packets are in flight — the aggregate repair cost must come
     out like a single long session over the same channel, not like
     independent channels per session. *)
  let receivers = 20 in
  let burst_net seed =
    Network.temporal
      (Rng.create ~seed ())
      ~receivers
      ~make:(fun rng -> Loss.markov2 rng ~p:0.05 ~mean_burst:5.0 ~send_rate:1000.0)
  in
  let bytes = 10_000 in
  let n = 4 in
  (* (a) one long session carrying all the bytes *)
  let single =
    Transfer.send_exn ~network:(burst_net 7) ~rng:(Rng.create ~seed:8 ())
      (message 0 (n * bytes))
  in
  Alcotest.(check bool) "single verified" true single.Transfer.verified;
  (* (b) the same bytes as n interleaved sessions on a fresh identical channel *)
  let network = burst_net 7 in
  let summary =
    send_all ~network ~rng:(Rng.create ~seed:8 ()) (List.init n (fun sid -> message sid bytes))
  in
  Alcotest.(check bool) "interleaved verified" true summary.Transfer.all_verified;
  let data, parity =
    List.fold_left
      (fun (d, p) (s : Transfer.session) ->
        ( d + s.outcome.Transfer.report.Np.data_tx,
          p + s.outcome.Transfer.report.Np.parity_tx ))
      (0, 0) summary.Transfer.sessions
  in
  let mux_m = float_of_int (data + parity) /. float_of_int data in
  let single_m = Np.transmissions_per_packet single.Transfer.report in
  Alcotest.(check bool)
    (Printf.sprintf "burst repair cost comparable (single %.3f vs interleaved %.3f)"
       single_m mux_m)
    true
    (mux_m < 1.6 *. single_m && single_m < 1.6 *. mux_m);
  (* Both must actually have seen bursts: memoryless loss at these rates
     would need far fewer parities per event. *)
  Alcotest.(check bool) "bursts forced repairs" true (parity > 0)

(* Staggered starts are the mux's: a flow enters the send rotation at its
   own virtual start time. *)
let test_staggered_starts () =
  let rng = Rng.create ~seed:33 () in
  let network = Network.independent (Rng.split rng) ~receivers:10 ~p:0.02 in
  let rng = Rng.split rng in
  let mux = Np.Mux.create (Rmcast.Engine.create ()) in
  let add ?start sid =
    let data = Transfer.packetize ~payload_size:Profile.default.Profile.payload_size (message sid 4_000) in
    Np.Mux.add_flow mux ~config:(Np.config_of_profile Profile.default) ?start ~network ~rng ~data ()
  in
  let early = add 0 in
  let late = add ~start:0.5 1 in
  Np.Mux.run mux;
  Alcotest.(check (float 1e-9)) "early starts at 0" 0.0 (Np.Mux.started_at early);
  Alcotest.(check (float 1e-9)) "late starts at 0.5" 0.5 (Np.Mux.started_at late);
  Alcotest.(check bool) "late finishes after it starts" true (Np.Mux.finished_at late > 0.5);
  Alcotest.(check bool) "both delivered intact" true
    ((Np.Mux.report early).Np.delivered_intact && (Np.Mux.report late).Np.delivered_intact);
  Alcotest.(check bool) "the engine drains after the straggler" true
    (Rmcast.Engine.now (Np.Mux.engine mux)
    >= Float.max (Np.Mux.finished_at early) (Np.Mux.finished_at late))

(* Every message is admitted before anything runs: a refused one is an
   [Error] naming [Transfer.send_all], nothing raises, no counter is
   recorded and no draw is taken from the shared RNG. *)
let test_validation () =
  let rng = Rng.create ~seed:44 () in
  let network = Network.independent (Rng.split rng) ~receivers:4 ~p:0.0 in
  let rng = Rng.split rng in
  let untouched = Rng.copy rng in
  let metrics = Metrics.create () in
  let error ?(profile = Profile.default) messages =
    match Transfer.send_all ~profile ~metrics ~network ~rng messages with
    | Ok _ -> Alcotest.fail "expected Error"
    | Error e -> Rmcast.Error.to_string e
    | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  in
  Alcotest.(check string) "invalid profile" "Transfer.send_all: k must be >= 1 (got 0)"
    (error ~profile:{ Profile.default with k = 0 } [ "payload" ]);
  Alcotest.(check string) "no messages" "Transfer.send_all: no messages" (error []);
  Alcotest.(check string) "empty payload after a valid one"
    "Transfer.send_all: empty message" (error [ "payload"; "" ]);
  Alcotest.(check bool) "undersized payload_size refused" true
    (String.starts_with ~prefix:"Transfer.send_all: payload_size"
       (error ~profile:{ Profile.default with payload_size = 4 } [ "payload" ]));
  Alcotest.(check (list (pair string int))) "no counter recorded" [] (Metrics.counters metrics);
  Alcotest.(check int) "no draw taken" (Rng.int untouched 1_000_000) (Rng.int rng 1_000_000);
  (* ... and the same arguments run fine with valid messages, whose
     sessions come back in list order (1 and 3 packets of 1,024 bytes). *)
  let summary = send_all ~network ~rng [ "some payload bytes"; String.make 3_000 'x' ] in
  Alcotest.(check bool) "runs after rejections" true summary.Transfer.all_verified;
  Alcotest.(check (list int)) "sessions in list order" [ 1; 3 ]
    (List.map
       (fun (s : Transfer.session) -> s.outcome.Transfer.report.Np.data_tx)
       summary.Transfer.sessions)

let suite =
  [
    Alcotest.test_case "fairness + isolation across 8 sessions" `Quick
      test_fairness_and_isolation;
    Alcotest.test_case "per-session counters sum to globals" `Quick
      test_counters_sum_to_global;
    Alcotest.test_case "bursty loss spans session boundaries" `Quick
      test_bursty_loss_spans_sessions;
    Alcotest.test_case "staggered virtual start times" `Quick test_staggered_starts;
    Alcotest.test_case "validation errors" `Quick test_validation;
  ]
