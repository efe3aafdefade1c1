module Eq = Rmcast.Event_queue
module Engine = Rmcast.Engine
module Loss = Rmcast.Loss
module Topology = Rmcast.Topology
module Network = Rmcast.Network
module Rng = Rmcast.Rng

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

(* --- event queue --- *)

let test_queue_orders_by_time () =
  let q = Eq.create () in
  Eq.add q ~time:3.0 "c";
  Eq.add q ~time:1.0 "a";
  Eq.add q ~time:2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string))) "a" (Some (1.0, "a")) (Eq.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "b" (Some (2.0, "b")) (Eq.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "c" (Some (3.0, "c")) (Eq.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "empty" None (Eq.pop q)

let test_queue_fifo_ties () =
  let q = Eq.create () in
  for i = 0 to 9 do
    Eq.add q ~time:1.0 i
  done;
  for i = 0 to 9 do
    match Eq.pop q with
    | Some (_, x) -> Alcotest.(check int) "insertion order" i x
    | None -> Alcotest.fail "queue empty"
  done

let test_queue_interleaved () =
  let q = Eq.create () in
  let rng = Rng.create ~seed:1 () in
  let times = Array.init 1000 (fun _ -> Rng.float rng) in
  Array.iter (fun t -> Eq.add q ~time:t ()) times;
  Alcotest.(check int) "size" 1000 (Eq.size q);
  let previous = ref neg_infinity in
  for _ = 1 to 1000 do
    match Eq.pop q with
    | Some (t, ()) ->
      Alcotest.(check bool) "nondecreasing" true (t >= !previous);
      previous := t
    | None -> Alcotest.fail "short queue"
  done

let test_queue_rejects_nan () =
  let q = Eq.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: time must be finite")
    (fun () -> Eq.add q ~time:Float.nan ())

let test_queue_clear () =
  let q = Eq.create () in
  Eq.add q ~time:1.0 ();
  Eq.clear q;
  Alcotest.(check bool) "empty" true (Eq.is_empty q)

(* --- engine --- *)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.at engine 2.0 (fun () -> log := "b" :: !log));
  ignore (Engine.at engine 1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.at engine 3.0 (fun () -> log := "c" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  close "clock at last event" 3.0 (Engine.now engine)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let timer = Engine.at engine 1.0 (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run engine;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check bool) "flagged" true (Engine.cancelled timer)

let test_engine_schedule_during_run () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then ignore (Engine.after engine 1.0 tick)
  in
  ignore (Engine.after engine 1.0 tick);
  Engine.run engine;
  Alcotest.(check int) "chain of 5" 5 !count;
  close "time advanced" 5.0 (Engine.now engine)

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.at engine 1.0 (fun () -> incr fired));
  ignore (Engine.at engine 10.0 (fun () -> incr fired));
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "only early event" 1 !fired;
  Alcotest.(check int) "late event still queued" 1 (Engine.pending engine)

let test_engine_rejects_past () =
  let engine = Engine.create () in
  ignore (Engine.at engine 5.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "past" (Invalid_argument "Engine.at: scheduling in the past")
    (fun () -> ignore (Engine.at engine 1.0 (fun () -> ())))

let test_engine_livelock_guard () =
  let engine = Engine.create () in
  let rec forever () = ignore (Engine.after engine 0.0 forever) in
  ignore (Engine.after engine 0.0 forever);
  Alcotest.check_raises "livelock"
    (Failure "Engine.run: max_events exceeded (protocol livelock?)") (fun () ->
      Engine.run ~max_events:1000 engine)

(* --- loss processes --- *)

let test_bernoulli_rate () =
  let loss = Loss.bernoulli (Rng.create ~seed:2 ()) ~p:0.1 in
  let hits = ref 0 in
  let n = 100_000 in
  for i = 0 to n - 1 do
    if Loss.lost loss (float_of_int i) then incr hits
  done;
  close ~tol:0.05 "empirical rate" 0.1 (float_of_int !hits /. float_of_int n);
  close "declared probability" 0.1 (Loss.loss_probability loss);
  close "bernoulli burst" (1.0 /. 0.9) (Loss.expected_burst_length loss ~spacing:1.0)

let test_loss_time_monotonicity_enforced () =
  let loss = Loss.bernoulli (Rng.create ~seed:3 ()) ~p:0.1 in
  ignore (Loss.lost loss 5.0);
  Alcotest.check_raises "backwards"
    (Invalid_argument "Loss.lost: query times must be non-decreasing") (fun () ->
      ignore (Loss.lost loss 4.0))

let test_markov_stationary_rate () =
  let loss = Loss.markov2 (Rng.create ~seed:4 ()) ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0 in
  close "declared" 0.01 (Loss.loss_probability loss);
  let hits = ref 0 in
  let n = 400_000 in
  for i = 0 to n - 1 do
    if Loss.lost loss (float_of_int i *. 0.04) then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "empirical %.4f ~ 0.01" rate) true
    (rate > 0.008 && rate < 0.012)

let test_markov_burst_length () =
  let loss = Loss.markov2 (Rng.create ~seed:5 ()) ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0 in
  close ~tol:1e-6 "designed burst length" 2.0 (Loss.expected_burst_length loss ~spacing:0.04);
  (* Empirically: mean run of consecutive losses at 40 ms spacing ~ 2. *)
  let hist =
    Rmcast.Runner.burst_length_histogram
      (Loss.markov2 (Rng.create ~seed:6 ()) ~p:0.01 ~mean_burst:2.0 ~send_rate:25.0)
      ~packets:400_000 ~spacing:0.04
  in
  let mean = Rmcast.Stats.Histogram.mean hist in
  Alcotest.(check bool) (Printf.sprintf "empirical burst %.2f ~ 2" mean) true
    (mean > 1.8 && mean < 2.2)

let test_markov_skip_ahead_decorrelates () =
  (* Far-apart queries must look stationary: P(loss) = p regardless of the
     previous state. *)
  let loss = Loss.markov2_rates (Rng.create ~seed:7 ()) ~mu01:1.0 ~mu10:9.0 in
  let hits = ref 0 in
  let n = 100_000 in
  for i = 0 to n - 1 do
    (* spacing 100x the mixing time *)
    if Loss.lost loss (float_of_int i *. 10.0) then incr hits
  done;
  close ~tol:0.1 "stationary 0.1" 0.1 (float_of_int !hits /. float_of_int n)

(* Known answers for the chain over query gaps that repeat, grow, drop to
   0 and come back: anything the chain remembers between queries (the
   last gap's decay factor) must follow the gap exactly.  Gaps are
   multiples of 1/32 s, so the differences of the query times are exact. *)
let test_markov_known_fates () =
  let d = 1.0 /. 32.0 in
  let gaps =
    [ d; d; d; d; d; d; 2. *. d; 4. *. d; 8. *. d; 32. *. d; 128. *. d; 0.; 0.; 0.; d; d; d; d;
      0.; d; d; 64. *. d; d; d; d; 0.; 0.; 2. *. d; 2. *. d; d; d; d; d; d; d; d; 16. *. d; d;
      d; d ]
  in
  let rng = Rng.create ~seed:5 () in
  let loss = Loss.markov2 rng ~p:0.3 ~mean_burst:3.0 ~send_rate:32.0 in
  let time = ref 0.0 in
  let fates =
    List.map
      (fun gap ->
        time := !time +. gap;
        if Loss.lost loss !time then "1" else "0")
      gaps
  in
  Alcotest.(check string) "fates" "1101000000111100011000000000011110111000"
    (String.concat "" fates);
  Alcotest.(check int64) "bits64 after" (-1949853218696268389L) (Rng.bits64 rng)

let test_markov_validation () =
  Alcotest.check_raises "burst <= 1"
    (Invalid_argument "Loss.markov2: mean_burst must exceed 1 packet") (fun () ->
      ignore (Loss.markov2 (Rng.create ()) ~p:0.01 ~mean_burst:1.0 ~send_rate:25.0))

let test_trace_loss () =
  let trace = [| false; true; true; false |] in
  let loss = Loss.of_trace ~spacing:1.0 trace in
  Alcotest.(check bool) "slot 0" false (Loss.lost loss 0.0);
  Alcotest.(check bool) "slot 1" true (Loss.lost loss 1.0);
  Alcotest.(check bool) "slot 2" true (Loss.lost loss 2.0);
  Alcotest.(check bool) "wraps" false (Loss.lost loss 4.0);
  close "trace probability" 0.5 (Loss.loss_probability loss);
  close "trace burst" 2.0 (Loss.expected_burst_length loss ~spacing:1.0)

let test_trace_loss_wrap_counted () =
  (* Regression: queries past the trace end used to wrap silently.  The
     default still repeats (historical behaviour), but every wrapped query
     is now counted. *)
  let trace = [| true; false |] in
  let loss = Loss.of_trace ~spacing:1.0 trace in
  Alcotest.(check bool) "slot 0" true (Loss.lost loss 0.0);
  Alcotest.(check int) "in-range queries don't count" 0 (Loss.trace_wraps loss);
  Alcotest.(check bool) "slot 2 repeats slot 0" true (Loss.lost loss 2.0);
  Alcotest.(check bool) "slot 5 repeats slot 1" false (Loss.lost loss 5.0);
  Alcotest.(check int) "wrapped queries counted" 2 (Loss.trace_wraps loss);
  (* non-trace processes always report zero *)
  Alcotest.(check int) "bernoulli never wraps" 0
    (Loss.trace_wraps (Loss.bernoulli (Rng.create ()) ~p:0.1))

let test_trace_loss_wrap_fail () =
  let loss = Loss.of_trace ~wrap:`Fail ~spacing:1.0 [| true; false; true |] in
  Alcotest.(check bool) "in range fine" true (Loss.lost loss 2.0);
  Alcotest.check_raises "past the end raises"
    (Invalid_argument "Loss.lost: trace exhausted (slot 3, trace length 3)") (fun () ->
      ignore (Loss.lost loss 3.0));
  Alcotest.(check int) "failed query not counted as wrap" 0 (Loss.trace_wraps loss)

(* --- topology --- *)

let test_topology_counts () =
  let t = Topology.full_binary ~height:4 in
  Alcotest.(check int) "receivers" 16 (Topology.receivers t);
  Alcotest.(check int) "nodes" 31 (Topology.node_count t);
  Alcotest.(check int) "root level" 0 (Topology.node_level t 1);
  Alcotest.(check int) "leaf level" 4 (Topology.node_level t 16);
  Alcotest.(check int) "leaf level last" 4 (Topology.node_level t 31)

let test_topology_leaf_mapping () =
  let t = Topology.full_binary ~height:3 in
  for r = 0 to 7 do
    Alcotest.(check int) "roundtrip" r (Topology.leaf_to_receiver t (Topology.receiver_to_leaf t r))
  done

let test_topology_receiver_range () =
  let t = Topology.full_binary ~height:3 in
  Alcotest.(check (pair int int)) "root covers all" (0, 7) (Topology.receiver_range t ~node:1);
  Alcotest.(check (pair int int)) "left subtree" (0, 3) (Topology.receiver_range t ~node:2);
  Alcotest.(check (pair int int)) "a leaf" (5, 5)
    (Topology.receiver_range t ~node:(Topology.receiver_to_leaf t 5))

let test_topology_node_loss_calibration () =
  let t = Topology.full_binary ~height:9 in
  let p_node = Topology.node_loss_probability t ~receiver_loss:0.01 in
  (* end-to-end: 1 - (1-p_node)^(d+1) = 0.01 *)
  close "calibration" 0.01 (1.0 -. ((1.0 -. p_node) ** 10.0))

let test_topology_path_failure () =
  let t = Topology.full_binary ~height:3 in
  (* Fail node 2 (covers receivers 0-3). *)
  let failed v = v = 2 in
  for r = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "receiver %d" r)
      (r <= 3)
      (Topology.path_has_failed_node t ~failed ~receiver:r)
  done;
  (* Root failure hits everyone. *)
  for r = 0 to 7 do
    Alcotest.(check bool) "root" true
      (Topology.path_has_failed_node t ~failed:(fun v -> v = 1) ~receiver:r)
  done

(* --- network --- *)

let count_losers tx receivers =
  let count = ref 0 in
  for r = 0 to receivers - 1 do
    if Network.lost tx r then incr count
  done;
  !count

let test_network_independent_rate () =
  let net = Network.independent (Rng.create ~seed:8 ()) ~receivers:1000 ~p:0.05 in
  let total = ref 0 in
  for i = 0 to 199 do
    total := !total + count_losers (Network.transmit net ~time:(float_of_int i)) 1000
  done;
  close ~tol:0.05 "per-receiver rate" 0.05 (float_of_int !total /. 200_000.0)

let test_network_iter_losers_rate () =
  let net = Network.independent (Rng.create ~seed:9 ()) ~receivers:1000 ~p:0.05 in
  let total = ref 0 in
  for i = 0 to 199 do
    Network.iter_losers (Network.transmit net ~time:(float_of_int i)) (fun _ -> incr total)
  done;
  close ~tol:0.05 "subset-sampled rate" 0.05 (float_of_int !total /. 200_000.0)

let test_network_fbt_end_to_end_rate () =
  let net = Network.fbt (Rng.create ~seed:10 ()) ~height:8 ~p:0.02 in
  Alcotest.(check int) "receivers" 256 (Network.receivers net);
  let total = ref 0 in
  let reps = 2_000 in
  for i = 0 to reps - 1 do
    Network.iter_losers (Network.transmit net ~time:(float_of_int i)) (fun _ -> incr total)
  done;
  close ~tol:0.08 "calibrated loss" 0.02 (float_of_int !total /. float_of_int (reps * 256))

let test_network_fbt_lost_consistent_with_iter () =
  (* For the same transmission, [lost] and [iter_losers] must agree. *)
  let net = Network.fbt (Rng.create ~seed:11 ()) ~height:6 ~p:0.1 in
  for i = 0 to 99 do
    let tx = Network.transmit net ~time:(float_of_int i) in
    let from_iter = Hashtbl.create 16 in
    Network.iter_losers tx (fun r -> Hashtbl.replace from_iter r ());
    for r = 0 to 63 do
      Alcotest.(check bool)
        (Printf.sprintf "tx %d receiver %d" i r)
        (Hashtbl.mem from_iter r)
        (Network.lost tx r)
    done
  done

let test_network_fbt_spatial_correlation () =
  (* Siblings share d ancestors; their losses must be positively
     correlated, unlike receivers in different halves of the tree. *)
  let net = Network.fbt (Rng.create ~seed:12 ()) ~height:8 ~p:0.05 in
  let reps = 30_000 in
  let both_siblings = ref 0 and both_distant = ref 0 and single = ref 0 in
  for i = 0 to reps - 1 do
    let tx = Network.transmit net ~time:(float_of_int i) in
    let l0 = Network.lost tx 0 in
    let l1 = Network.lost tx 1 in
    let l255 = Network.lost tx 255 in
    if l0 then incr single;
    if l0 && l1 then incr both_siblings;
    if l0 && l255 then incr both_distant
  done;
  let p_single = float_of_int !single /. float_of_int reps in
  let p_sib = float_of_int !both_siblings /. float_of_int reps in
  let p_far = float_of_int !both_distant /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "corr: single=%.4f sib=%.4f far=%.4f" p_single p_sib p_far)
    true
    (p_sib > 2.0 *. p_far)

let test_network_heterogeneous_rates () =
  let net =
    Network.heterogeneous (Rng.create ~seed:13 ()) ~classes:[ (0.01, 500); (0.3, 500) ]
  in
  Alcotest.(check int) "population" 1000 (Network.receivers net);
  let low = ref 0 and high = ref 0 in
  let reps = 3_000 in
  for i = 0 to reps - 1 do
    Network.iter_losers (Network.transmit net ~time:(float_of_int i)) (fun r ->
        if r < 500 then incr low else incr high)
  done;
  close ~tol:0.1 "low class" 0.01 (float_of_int !low /. float_of_int (reps * 500));
  close ~tol:0.05 "high class" 0.3 (float_of_int !high /. float_of_int (reps * 500))

let test_network_temporal () =
  let net =
    Network.temporal (Rng.create ~seed:14 ()) ~receivers:50 ~make:(fun rng ->
        Loss.markov2 rng ~p:0.05 ~mean_burst:3.0 ~send_rate:25.0)
  in
  let total = ref 0 in
  let reps = 4_000 in
  for i = 0 to reps - 1 do
    Network.iter_losers (Network.transmit net ~time:(float_of_int i *. 0.04)) (fun _ -> incr total)
  done;
  close ~tol:0.15 "temporal marginal rate" 0.05 (float_of_int !total /. float_of_int (reps * 50))

let test_network_time_monotonicity () =
  let net = Network.temporal (Rng.create ~seed:15 ()) ~receivers:2 ~make:(fun rng ->
      Loss.bernoulli rng ~p:0.1)
  in
  ignore (Network.transmit net ~time:1.0);
  Alcotest.check_raises "backwards" (Invalid_argument "Network.transmit: time went backwards")
    (fun () -> ignore (Network.transmit net ~time:0.5))

let base_suite =
  [
    Alcotest.test_case "queue orders by time" `Quick test_queue_orders_by_time;
    Alcotest.test_case "queue FIFO on ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue 1000 random events" `Quick test_queue_interleaved;
    Alcotest.test_case "queue rejects NaN" `Quick test_queue_rejects_nan;
    Alcotest.test_case "queue clear" `Quick test_queue_clear;
    Alcotest.test_case "engine ordering" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine self-scheduling" `Quick test_engine_schedule_during_run;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "engine livelock guard" `Quick test_engine_livelock_guard;
    Alcotest.test_case "bernoulli loss rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "loss time monotonicity" `Quick test_loss_time_monotonicity_enforced;
    Alcotest.test_case "markov stationary rate" `Quick test_markov_stationary_rate;
    Alcotest.test_case "markov burst length" `Quick test_markov_burst_length;
    Alcotest.test_case "markov skip-ahead" `Quick test_markov_skip_ahead_decorrelates;
    Alcotest.test_case "markov validation" `Quick test_markov_validation;
    Alcotest.test_case "markov known fates over varying gaps" `Quick test_markov_known_fates;
    Alcotest.test_case "trace-driven loss" `Quick test_trace_loss;
    Alcotest.test_case "trace wrap counted" `Quick test_trace_loss_wrap_counted;
    Alcotest.test_case "trace wrap can fail" `Quick test_trace_loss_wrap_fail;
    Alcotest.test_case "topology counts" `Quick test_topology_counts;
    Alcotest.test_case "topology leaf mapping" `Quick test_topology_leaf_mapping;
    Alcotest.test_case "topology receiver ranges" `Quick test_topology_receiver_range;
    Alcotest.test_case "topology p_node calibration" `Quick test_topology_node_loss_calibration;
    Alcotest.test_case "topology path failure" `Quick test_topology_path_failure;
    Alcotest.test_case "network independent rate (lost)" `Quick test_network_independent_rate;
    Alcotest.test_case "network independent rate (iter)" `Quick test_network_iter_losers_rate;
    Alcotest.test_case "network fbt calibrated" `Quick test_network_fbt_end_to_end_rate;
    Alcotest.test_case "network fbt lost = iter" `Quick test_network_fbt_lost_consistent_with_iter;
    Alcotest.test_case "network fbt spatial correlation" `Quick test_network_fbt_spatial_correlation;
    Alcotest.test_case "network heterogeneous" `Quick test_network_heterogeneous_rates;
    Alcotest.test_case "network temporal" `Quick test_network_temporal;
    Alcotest.test_case "network time monotonic" `Quick test_network_time_monotonicity;
  ]

(* --- Trace_io --- *)

let test_trace_io_roundtrip () =
  let rng = Rng.create ~seed:40 () in
  let loss = Loss.markov2 rng ~p:0.05 ~mean_burst:2.5 ~send_rate:25.0 in
  let trace = Rmcast.Trace_io.record loss ~packets:1000 ~spacing:0.04 in
  let path = Filename.temp_file "rmcast" ".trace" in
  Rmcast.Trace_io.save ~path trace;
  let reloaded = Rmcast.Trace_io.load ~path in
  Sys.remove path;
  Alcotest.(check (array bool)) "roundtrip" trace reloaded

let test_trace_io_stats () =
  let trace = [| false; true; true; false; true; false; false |] in
  let s = Rmcast.Trace_io.stats trace in
  Alcotest.(check int) "packets" 7 s.Rmcast.Trace_io.packets;
  Alcotest.(check int) "losses" 3 s.Rmcast.Trace_io.losses;
  Alcotest.(check int) "runs" 2 s.Rmcast.Trace_io.runs;
  Alcotest.(check int) "max burst" 2 s.Rmcast.Trace_io.max_burst;
  close "mean burst" 1.5 s.Rmcast.Trace_io.mean_burst

let test_trace_io_replay_consistent () =
  (* A recorded trace replayed through Loss.of_trace gives identical
     outcomes at the same spacing. *)
  let rng = Rng.create ~seed:41 () in
  let loss = Loss.bernoulli rng ~p:0.2 in
  let trace = Rmcast.Trace_io.record loss ~packets:500 ~spacing:1.0 in
  let replay = Loss.of_trace ~spacing:1.0 trace in
  Array.iteri
    (fun i expected ->
      Alcotest.(check bool) "replay" expected (Loss.lost replay (float_of_int i)))
    trace

let test_trace_io_malformed () =
  let path = Filename.temp_file "rmcast" ".trace" in
  let oc = open_out path in
  output_string oc "01x0\n";
  close_out oc;
  Alcotest.(check bool) "malformed rejected" true
    (match Rmcast.Trace_io.load ~path with
    | exception Failure _ -> true
    | _ -> false);
  Sys.remove path

let trace_suite =
  [
    Alcotest.test_case "trace save/load roundtrip" `Quick test_trace_io_roundtrip;
    Alcotest.test_case "trace stats" `Quick test_trace_io_stats;
    Alcotest.test_case "trace replay consistent" `Quick test_trace_io_replay_consistent;
    Alcotest.test_case "trace malformed rejected" `Quick test_trace_io_malformed;
  ]

let suite = base_suite @ trace_suite
