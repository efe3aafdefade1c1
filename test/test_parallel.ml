(* The domain-parallel experiment engine: chunked map/map_reduce against
   their sequential equivalents, exception propagation, the lock-free
   buffer pool under multi-domain load, derived cell seeds, sweep
   determinism across job counts, the shared codec memo under
   contention, and sharded metrics exactness. *)

open Rmcast

let pool4 () = Parallel.pool_sized 4

(* --- map / map_reduce --------------------------------------------------- *)

exception Boom of int

let qcheck_map_differential =
  let gen =
    QCheck.Gen.(triple (int_range 0 200) (int_range 1 64) (opt (int_range 0 199)))
  in
  let print (n, chunk, fail_at) =
    Printf.sprintf "n=%d chunk=%d fail_at=%s" n chunk
      (match fail_at with Some i -> string_of_int i | None -> "-")
  in
  QCheck.Test.make ~count:120 ~name:"Parallel.map = Array.init for any n/chunk"
    (QCheck.make ~print gen)
    (fun (n, chunk, fail_at) ->
      let f i =
        match fail_at with
        | Some j when i = j -> raise (Boom i)
        | _ -> (i * 31) + (i mod 7)
      in
      let should_raise = match fail_at with Some j -> j < n | None -> false in
      if should_raise then
        match Parallel.map ~pool:(pool4 ()) ~chunk n f with
        | _ -> false
        | exception Boom i -> i = Option.get fail_at
      else Parallel.map ~pool:(pool4 ()) ~chunk n f = Array.init n f)

let qcheck_map_reduce_differential =
  (* The combine is deliberately order-sensitive (float fold with a decay
     term): equality with the sequential fold proves the reduction runs
     in index order whatever the schedule. *)
  let gen = QCheck.Gen.(pair (int_range 0 150) (int_range 1 32)) in
  let print (n, chunk) = Printf.sprintf "n=%d chunk=%d" n chunk in
  QCheck.Test.make ~count:100 ~name:"Parallel.map_reduce folds in index order"
    (QCheck.make ~print gen)
    (fun (n, chunk) ->
      let map i = float_of_int ((i * 13) mod 29) in
      let combine acc x = (acc *. 1.0000001) +. x in
      let parallel =
        Parallel.map_reduce ~pool:(pool4 ()) ~chunk n ~map ~combine ~init:0.0
      in
      let sequential = Array.fold_left combine 0.0 (Array.init n map) in
      parallel = sequential)

let test_map_pool_reusable_after_exception () =
  let pool = pool4 () in
  (match Parallel.map ~pool 50 (fun i -> if i = 17 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected the task exception to re-raise"
  | exception Failure _ -> ());
  Alcotest.(check (array int)) "pool still works after a failed batch"
    (Array.init 50 (fun i -> i * 2))
    (Parallel.map ~pool 50 (fun i -> i * 2))

let test_map_rejects_bad_chunk () =
  (match Parallel.map ~pool:(pool4 ()) ~chunk:0 8 (fun i -> i) with
  | _ -> Alcotest.fail "chunk 0 accepted"
  | exception Invalid_argument _ -> ());
  match Parallel.map ~pool:(pool4 ()) (-1) (fun i -> i) with
  | _ -> Alcotest.fail "negative count accepted"
  | exception Invalid_argument _ -> ()

let test_pool_sized_memoized () =
  Alcotest.(check bool) "pool_sized memoizes by size" true
    (pool4 () == Parallel.pool_sized 4);
  Alcotest.(check int) "requested parallelism" 4 (Parallel.domain_count (pool4 ()))

let test_shutdown_degrades_gracefully () =
  let pool = Parallel.create_pool ~domains:2 () in
  Alcotest.(check (array int)) "before shutdown"
    [| 0; 1; 2; 3 |]
    (Parallel.map ~pool 4 (fun i -> i));
  Parallel.shutdown pool;
  Alcotest.(check (array int)) "after shutdown the caller runs everything"
    [| 0; 2; 4; 6 |]
    (Parallel.map ~pool 4 (fun i -> i * 2))

(* --- derived seeds ------------------------------------------------------ *)

let test_derive_seed () =
  let seed = Rng.derive_seed 42 [| 3; 7 |] in
  Alcotest.(check int) "pure function of (seed, coords)" seed
    (Rng.derive_seed 42 [| 3; 7 |]);
  Alcotest.(check bool) "coordinate order matters" true
    (Rng.derive_seed 42 [| 3; 7 |] <> Rng.derive_seed 42 [| 7; 3 |]);
  Alcotest.(check bool) "base seed matters" true
    (Rng.derive_seed 42 [| 3; 7 |] <> Rng.derive_seed 43 [| 3; 7 |]);
  Alcotest.(check bool) "non-negative" true (seed >= 0);
  (* Neighbouring cells must land far apart: the streams they seed run
     the same code on almost the same state otherwise. *)
  let seeds =
    List.concat_map
      (fun r -> List.map (fun k -> Rng.derive_seed 0 [| r; k |]) [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "16 cells, 16 distinct seeds" 16
    (List.length (List.sort_uniq compare seeds))

(* --- sweep determinism -------------------------------------------------- *)

(* A deliberately stochastic cell: the result depends on the cell's RNG
   stream, so schedule-dependent seeding would show up immediately. *)
let stochastic_series ~jobs =
  Sweep.series_cells ~jobs ~seed:7 ~label:"sim" ~xs:(List.init 13 (fun i -> i + 1))
    ~f:(fun ~seed x ->
      let rng = Rng.create ~seed () in
      let acc = ref 0.0 in
      for _ = 1 to 40 do
        acc := !acc +. float_of_int (Rng.int rng 1000)
      done;
      (float_of_int x, !acc))
    ()

let test_run_cells_jobs_invariant () =
  let csv jobs = Sweep.to_csv [ stochastic_series ~jobs ] in
  Alcotest.(check string) "jobs=1 and jobs=4 emit identical CSV" (csv 1) (csv 4);
  Alcotest.(check string) "jobs=3 too (uneven chunking)" (csv 1) (csv 3)

(* An exact-tier grid (receivers x k, Integrated_nak, p = 0.01, 40 reps a
   cell) through [Sweep.run_cells], printed at full float precision: the
   schedule must not reach the bytes. *)
let runner_grid_csv ~jobs =
  let cells =
    Array.of_list
      (List.concat_map (fun r -> [ (r, 7); (r, 20) ]) [ 30; 60; 120; 240 ])
  in
  let rows =
    Sweep.run_cells ~jobs ~seed:0xbeef
      ~coords:(fun _ (receivers, k) -> [| receivers; k |])
      ~f:(fun ~seed (receivers, k) ->
        let network = Network.independent (Rng.create ~seed ()) ~receivers ~p:0.01 in
        let est =
          Runner.estimate network ~k
            ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps:40 ()
        in
        Printf.sprintf "%d,%d,%.17g,%.17g,%.17g\n" receivers k (Runner.mean_m est)
          (Stats.Accumulator.mean est.Runner.rounds)
          (Stats.Accumulator.mean est.Runner.feedback))
      cells
  in
  String.concat "" (Array.to_list rows)

let test_runner_grid_jobs_invariant () =
  Alcotest.(check string) "jobs=1 and jobs=4 emit identical CSV" (runner_grid_csv ~jobs:1)
    (runner_grid_csv ~jobs:4)

let test_run_cells_custom_coords () =
  let cells = [| (10, 2); (20, 4) |] in
  let run () =
    Sweep.run_cells ~jobs:2 ~seed:5
      ~coords:(fun _ (r, k) -> [| r; k |])
      ~f:(fun ~seed (r, k) -> (r * k) + seed)
      cells
  in
  Alcotest.(check (array int)) "coordinate-derived seeds are stable" (run ()) (run ());
  Alcotest.(check bool) "cells got distinct seeds" true
    (let s = Sweep.cell_seed ~seed:5 [| 10; 2 |] in
     let s' = Sweep.cell_seed ~seed:5 [| 20; 4 |] in
     s <> s')

(* --- lock-free buffer pool ---------------------------------------------- *)

let test_pool_multi_domain_hammer () =
  (* Capacity below the concurrent demand, so the hammer exercises pooled
     traffic, overflow allocation and overflow adoption all at once. *)
  let pool = Buffer_pool.create ~capacity:6 ~buf_size:256 () in
  let per_domain = 20_000 in
  let spawned =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create ~seed:(d + 1) () in
            for _ = 1 to per_domain do
              let first = Buffer_pool.checkout pool in
              let second = Buffer_pool.checkout pool in
              Bytes.set first 0 'x';
              Bytes.set second 0 'y';
              if Rng.int rng 2 = 0 then begin
                Buffer_pool.release pool first;
                Buffer_pool.release pool second
              end
              else begin
                Buffer_pool.release pool second;
                Buffer_pool.release pool first
              end
            done))
  in
  Array.iter Domain.join spawned;
  Alcotest.(check int) "every checkout counted" (8 * per_domain)
    (Buffer_pool.total_checkouts pool);
  Alcotest.(check int) "nothing outstanding" 0 (Buffer_pool.outstanding pool);
  Alcotest.(check bool) "free list bounded by capacity" true
    (Buffer_pool.free_buffers pool <= Buffer_pool.capacity pool);
  Buffer_pool.assert_quiescent pool

let test_pool_cross_domain_handoff () =
  (* Checkout here, release there, repeatedly — the free list must absorb
     buffers coming home on a foreign domain. *)
  let pool = Buffer_pool.create ~capacity:4 ~buf_size:64 () in
  for _ = 1 to 50 do
    let buffer = Buffer_pool.checkout pool in
    Domain.join (Domain.spawn (fun () -> Buffer_pool.release pool buffer))
  done;
  Alcotest.(check int) "all checkouts counted" 50 (Buffer_pool.total_checkouts pool);
  Buffer_pool.assert_quiescent pool;
  Alcotest.(check bool) "free list populated" true (Buffer_pool.free_buffers pool >= 1)

let test_pool_discipline_still_enforced () =
  (* The lock-free rewrite keeps the single-domain discipline errors. *)
  let pool = Buffer_pool.create ~capacity:2 ~buf_size:32 () in
  let buffer = Buffer_pool.checkout pool in
  (match Buffer_pool.release pool (Bytes.create 31) with
  | () -> Alcotest.fail "wrong-size release accepted"
  | exception Invalid_argument message ->
    Alcotest.(check string) "size message"
      "Buffer_pool.release: buffer size does not match this pool" message);
  Buffer_pool.release pool buffer;
  (match Buffer_pool.release pool buffer with
  | () -> Alcotest.fail "double release accepted"
  | exception Invalid_argument message ->
    Alcotest.(check string) "double-release message" "Buffer_pool.release: double release"
      message);
  match Buffer_pool.release pool (Bytes.create 32) with
  | () -> Alcotest.fail "release with nothing checked out accepted"
  | exception Invalid_argument message ->
    Alcotest.(check string) "nothing-checked-out message"
      "Buffer_pool.release: nothing checked out" message

(* --- codec memo under contention ---------------------------------------- *)

let test_codec_memo_contention () =
  (* Per-cell Runner.estimate calls share the codec-construction memo;
     hammer it from 4 domains and check the parallel results match the
     sequential ones bit for bit. *)
  let ks = [| 5; 7; 11; 16 |] in
  let payload k i j = Char.chr (((i * k) + (j * 7) + 3) mod 256) in
  let parity_of k =
    let codec = Rse.create ~k ~h:3 () in
    let data = Array.init k (fun i -> Bytes.init 32 (payload k i)) in
    Rse.encode codec data
  in
  let sequential = Array.map parity_of ks in
  let parallel =
    Parallel.map ~pool:(pool4 ()) ~chunk:1 16 (fun i -> parity_of ks.(i mod 4))
  in
  Array.iteri
    (fun i parity ->
      Alcotest.(check bool)
        (Printf.sprintf "parity %d matches sequential" i)
        true
        (parity = sequential.(i mod 4)))
    parallel;
  (* And a full estimate: same seed, same cell, run inside the pool. *)
  let estimate seed =
    let rng = Rng.create ~seed () in
    let network = Network.independent rng ~receivers:50 ~p:0.02 in
    Runner.mean_m
      (Runner.estimate network ~k:7 ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps:30 ())
  in
  let sequential = Array.init 4 (fun i -> estimate (i + 1)) in
  let parallel = Parallel.map ~pool:(pool4 ()) ~chunk:1 4 (fun i -> estimate (i + 1)) in
  Alcotest.(check (array (float 0.0))) "estimates match sequential" sequential parallel

(* --- sharded metrics ---------------------------------------------------- *)

let test_metrics_sharded_exact () =
  let metrics = Metrics.create () in
  let c = Metrics.counter metrics "sharded.hits" in
  let per_domain = 20_000 in
  let spawned =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done;
            Metrics.incr ~by:(d + 10) c))
  in
  Array.iter Domain.join spawned;
  Alcotest.(check int) "no increment lost across shards"
    ((4 * per_domain) + 10 + 11 + 12 + 13)
    (Metrics.count c)

let test_metrics_snapshot () =
  let metrics = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter metrics "a");
  Metrics.incr ~by:5 (Metrics.counter metrics "b");
  Metrics.set (Metrics.gauge metrics "g") 2.5;
  let counters, gauges = Metrics.snapshot metrics in
  Alcotest.(check (list (pair string int))) "counters summed once, sorted"
    [ ("a", 3); ("b", 5) ]
    counters;
  Alcotest.(check (list (pair string (float 0.0)))) "gauges" [ ("g", 2.5) ] gauges

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_map_differential;
    QCheck_alcotest.to_alcotest qcheck_map_reduce_differential;
    Alcotest.test_case "pool reusable after exception" `Quick
      test_map_pool_reusable_after_exception;
    Alcotest.test_case "map rejects bad chunk and count" `Quick test_map_rejects_bad_chunk;
    Alcotest.test_case "pool_sized memoized" `Quick test_pool_sized_memoized;
    Alcotest.test_case "shutdown degrades gracefully" `Quick
      test_shutdown_degrades_gracefully;
    Alcotest.test_case "derive_seed determinism" `Quick test_derive_seed;
    Alcotest.test_case "run_cells jobs-invariant" `Quick test_run_cells_jobs_invariant;
    Alcotest.test_case "run_cells custom coords" `Quick test_run_cells_custom_coords;
    Alcotest.test_case "buffer pool multi-domain hammer" `Quick
      test_pool_multi_domain_hammer;
    Alcotest.test_case "buffer pool cross-domain handoff" `Quick
      test_pool_cross_domain_handoff;
    Alcotest.test_case "buffer pool discipline still enforced" `Quick
      test_pool_discipline_still_enforced;
    Alcotest.test_case "codec memo under contention" `Quick test_codec_memo_contention;
    Alcotest.test_case "metrics sharded exactness" `Quick test_metrics_sharded_exact;
    Alcotest.test_case "metrics snapshot" `Quick test_metrics_snapshot;
    Alcotest.test_case "runner grid jobs-invariant" `Quick test_runner_grid_jobs_invariant;
  ]
