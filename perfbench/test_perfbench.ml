(* Unit tests of the benchmark's own accounting: span self time, metric
   names, and failure counting on a transfer that cannot finish. *)

open Perfbench

let span t ?parent name a b =
  Span.add t ?parent ~name ~start_ns:(Int64.of_int a) ~stop_ns:(Int64.of_int b) ()

let self_of t id =
  snd (List.find (fun ((s : Span.span), _) -> s.id = id) (Span.self_times (Span.spans t)))

let nested () =
  let t = Span.create () in
  let root = span t "root" 0 100 in
  let child = span t ~parent:root "child" 10 40 in
  let grandchild = span t ~parent:child "grandchild" 20 30 in
  Alcotest.(check int) "root loses its child's interval" 70 (self_of t root);
  Alcotest.(check int) "child loses only its own child" 20 (self_of t child);
  Alcotest.(check int) "leaf keeps its duration" 10 (self_of t grandchild)

let overlapping () =
  let t = Span.create () in
  let root = span t "root" 0 100 in
  ignore (span t ~parent:root "a" 10 50);
  ignore (span t ~parent:root "b" 30 70);
  ignore (span t ~parent:root "c" 60 65);
  (* A child sticking out of its parent only covers the inside part. *)
  ignore (span t ~parent:root "d" 90 130);
  Alcotest.(check int) "100 less the union [10,70) + [90,100), counted once" 30 (self_of t root)

let zero_length () =
  let t = Span.create () in
  let root = span t "root" 0 50 in
  let empty = span t ~parent:root "empty" 20 20 in
  let empty_root = span t "empty-root" 60 60 in
  Alcotest.(check int) "an empty child covers nothing" 50 (self_of t root);
  Alcotest.(check int) "an empty span has no self time" 0 (self_of t empty);
  Alcotest.(check int) "an empty root has no self time" 0 (self_of t empty_root)

let by_name () =
  let t = Span.create () in
  let root = span t "pass" 0 100 in
  ignore (span t ~parent:root "call" 0 10);
  ignore (span t ~parent:root "call" 20 50);
  let table = Span.self_by_name (Span.spans t) in
  Alcotest.(check int) "calls" 2 (Span.calls table "call");
  Alcotest.(check (float 1e-12)) "call self seconds" 40e-9 (Span.self_s table "call");
  Alcotest.(check (float 1e-12)) "pass self seconds" 60e-9 (Span.self_s table "pass")

let metric_names () =
  List.iter
    (fun name -> Alcotest.(check bool) name true (Metric.valid_name name))
    [ "goodput_MBps"; "wire.decode_ns"; "endhost.Ypn_us"; "gc.alloc-bytes"; "9lives" ];
  List.iter
    (fun name -> Alcotest.(check bool) name false (Metric.valid_name name))
    [ ""; "_hidden"; ".dot"; "has space"; "slash/name"; "quote\""; String.make 65 'a' ];
  Alcotest.check_raises "make rejects a bad name"
    (Invalid_argument "Metric.make: bad metric name bad name") (fun () ->
      ignore (Metric.make "bad name" "s" 1.0))

(* A UDP transfer given 1 ms of wall clock cannot reach its receivers:
   every receiver-transfer times out and counts as failed. *)
let forced_timeout () =
  let prepared =
    Workload.setup ~traced:true ~session_timeout:0.001 Workload.Udp_bulk ~seed:1
  in
  let o = prepared.transfer () in
  Alcotest.(check int) "every receiver failed" o.receivers o.failed;
  Alcotest.(check bool)
    "the check reports it" true
    (Bench.check Workload.Udp_bulk ~previous:None o <> []);
  Alcotest.(check (float 1e-12)) "failure rate"
    ((float_of_int o.receivers +. 0.5) /. (float_of_int o.receivers +. 1.0))
    (Metric.failure_rate ~attempted:o.receivers ~failed:o.failed)

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "nested" `Quick nested;
          Alcotest.test_case "overlapping children" `Quick overlapping;
          Alcotest.test_case "zero-length spans" `Quick zero_length;
          Alcotest.test_case "self time by name" `Quick by_name;
        ] );
      ("metric", [ Alcotest.test_case "names" `Quick metric_names ]);
      ("failure", [ Alcotest.test_case "forced timeout" `Quick forced_timeout ]);
    ]
