(* The domain-parallel experiment engine, measured and gated.

   The workload is the repo's bread and butter: a grid of exact-tier
   [Runner.estimate] cells (receivers x k, Integrated_nak, Bernoulli
   loss) evaluated through [Sweep.run_cells].  Each cell's seed is
   derived from its (receivers, k) coordinates, never from the
   schedule, so the CSV a run produces is a pure function of
   (grid, base seed) — which the determinism gate checks literally:
   jobs=1 and jobs=4 must emit byte-identical CSV.  Running 4 domains
   on a single-core host still schedules nondeterministically, so the
   gate is meaningful even where the speedup is not.

   Gates (`--smoke`, wired to @bench-smoke, hence @ci):

   - determinism: jobs=1 vs jobs=4 CSVs byte-identical (always on);
   - speedup: wall(jobs=1) / wall(jobs=domains) >= 3.0 with >= 4
     domains, >= 1.2 with 2-3; on single-core hosts the gate is
     SKIPPED, loudly logged, never silently passed;
   - pool hammer: 4 domains thrash one lock-free [Buffer_pool]
     concurrently; checkout/release accounting must come back exact and
     [assert_quiescent] clean.

   The full run writes BENCH_PARALLEL.json (override: --out). *)

open Rmcast

type mode = Full | Smoke

let mode = ref Full
let out_path = ref "BENCH_PARALLEL.json"

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest | "--fast" :: rest ->
      mode := Smoke;
      parse rest
    | "--out" :: path :: rest ->
      out_path := path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "usage: parallel_sweep [--smoke] [--out PATH] (got %S)\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let domains = Domain.recommended_domain_count ()

(* --- the grid ----------------------------------------------------------- *)

let p = 0.01
let base_seed = 0xbeef

let grid ~fast =
  let receivers = if fast then [ 30; 60; 120; 240 ] else [ 100; 200; 400; 800; 1600 ] in
  let ks = if fast then [ 7; 20 ] else [ 7; 20; 100 ] in
  Array.of_list
    (List.concat_map (fun r -> List.map (fun k -> (r, k)) ks) receivers)

type row = {
  receivers : int;
  k : int;
  mean_m : float;
  rounds : float;
  feedback : float;
}

let eval ~reps ~seed (receivers, k) =
  let rng = Rng.create ~seed () in
  let network = Network.independent rng ~receivers ~p in
  let est =
    Runner.estimate network ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps ()
  in
  {
    receivers;
    k;
    mean_m = Runner.mean_m est;
    rounds = Stats.Accumulator.mean est.Runner.rounds;
    feedback = Stats.Accumulator.mean est.Runner.feedback;
  }

let run_grid ~jobs ~reps cells =
  timed (fun () ->
      Sweep.run_cells ~jobs ~seed:base_seed
        ~coords:(fun _ (receivers, k) -> [| receivers; k |])
        ~f:(fun ~seed cell -> eval ~reps ~seed cell)
        cells)

(* Full float precision: the determinism gate compares these bytes. *)
let csv rows =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "receivers,k,mean_m,rounds,feedback\n";
  Array.iter
    (fun r ->
      Buffer.add_string buffer
        (Printf.sprintf "%d,%d,%.17g,%.17g,%.17g\n" r.receivers r.k r.mean_m r.rounds
           r.feedback))
    rows;
  Buffer.contents buffer

(* --- pool hammer -------------------------------------------------------- *)

(* 4 domains thrash one pool with interleaved checkout/release pairs
   (including overflow traffic: 4 domains x 2 held > capacity 6).
   Returns (exact_accounting, quiescent). *)
let hammer_domains = 4
let hammer_iters = 20_000

let pool_hammer () =
  let pool = Buffer_pool.create ~capacity:6 ~buf_size:256 () in
  let spawned =
    Array.init hammer_domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create ~seed:(d + 1) () in
            for _ = 1 to hammer_iters do
              let first = Buffer_pool.checkout pool in
              let second = Buffer_pool.checkout pool in
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
  let exact =
    Buffer_pool.total_checkouts pool = 2 * hammer_domains * hammer_iters
    && Buffer_pool.outstanding pool = 0
    && Buffer_pool.free_buffers pool <= Buffer_pool.capacity pool
  in
  let quiescent =
    match Buffer_pool.assert_quiescent pool with
    | () -> true
    | exception Invalid_argument _ -> false
  in
  (exact, quiescent)

(* --- speedup ------------------------------------------------------------ *)

type speedup = {
  par_jobs : int;
  wall_seq : float;
  wall_par : float;
  factor : float;
  threshold : float option; (* None = gate skipped *)
  pass : bool; (* true when skipped *)
}

let measure_speedup ~reps cells =
  let _, wall_seq = run_grid ~jobs:1 ~reps cells in
  if domains < 2 then
    { par_jobs = 1; wall_seq; wall_par = wall_seq; factor = 1.0; threshold = None;
      pass = true }
  else begin
    let threshold = if domains >= 4 then 3.0 else 1.2 in
    let _, wall_par = run_grid ~jobs:domains ~reps cells in
    let factor = wall_seq /. Float.max 1e-9 wall_par in
    { par_jobs = domains; wall_seq; wall_par; factor; threshold = Some threshold;
      pass = factor >= threshold }
  end

let print_speedup s =
  match s.threshold with
  | None ->
    Printf.printf
      "speedup gate SKIPPED: single-core host (recommended_domain_count = %d); \
       sequential grid took %.2fs\n%!"
      domains s.wall_seq
  | Some threshold ->
    Printf.printf "speedup: jobs=1 %.2fs, jobs=%d %.2fs -> %.2fx (gate >= %.1fx: %s)\n%!"
      s.wall_seq s.par_jobs s.wall_par s.factor threshold
      (if s.pass then "pass" else "FAIL")

(* --- JSON --------------------------------------------------------------- *)

let json_of ~cells ~reps ~identical ~speedup:s ~pool_exact ~pool_quiescent ~elapsed =
  let buffer = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  pr "{\n";
  pr "  \"meta\": {\n";
  pr "    \"note\": \"exact-tier Runner.estimate grid evaluated through \
      Sweep.run_cells; cell seeds derived from (receivers, k) coordinates, so any \
      job count must produce identical results\",\n";
  pr "    \"domains\": %d,\n" domains;
  pr "    \"grid_cells\": %d, \"reps_per_cell\": %d, \"p\": %g,\n"
    (Array.length cells) reps p;
  pr "    \"elapsed_s\": %.2f\n" elapsed;
  pr "  },\n";
  pr "  \"determinism\": {\n";
  pr "    \"jobs_compared\": [1, 4],\n";
  pr "    \"csv_byte_identical\": %b\n" identical;
  pr "  },\n";
  pr "  \"speedup\": {\n";
  pr "    \"wall_seq_s\": %.4f,\n" s.wall_seq;
  (match s.threshold with
  | None ->
    pr "    \"gate\": \"skipped (domains=%d < 2)\",\n" domains;
    pr "    \"threshold\": null, \"par_jobs\": null, \"wall_par_s\": null, \
        \"factor\": null\n"
  | Some threshold ->
    pr "    \"gate\": %S,\n" (if s.pass then "pass" else "fail");
    pr "    \"threshold\": %.1f, \"par_jobs\": %d, \"wall_par_s\": %.4f, \
        \"factor\": %.2f\n"
      threshold s.par_jobs s.wall_par s.factor);
  pr "  },\n";
  pr "  \"pool_hammer\": {\n";
  pr "    \"domains\": %d, \"checkouts\": %d,\n" hammer_domains
    (2 * hammer_domains * hammer_iters);
  pr "    \"accounting_exact\": %b, \"quiescent\": %b\n" pool_exact pool_quiescent;
  pr "  }\n";
  pr "}\n";
  Buffer.contents buffer

(* --- main --------------------------------------------------------------- *)

let () =
  let fast = !mode = Smoke in
  let t0 = Unix.gettimeofday () in
  let cells = grid ~fast in
  let reps = if fast then 40 else 120 in
  let failures = ref 0 in
  let check name ok detail =
    if not ok then begin
      Printf.eprintf "GATE FAIL: %s (%s)\n" name detail;
      incr failures
    end
  in
  (* Determinism: the same grid through 1 domain and through 4 must emit
     the same bytes.  4 workers on fewer cores still interleave, so this
     bites on any host. *)
  let rows_seq, _ = run_grid ~jobs:1 ~reps cells in
  let rows_par4, _ = run_grid ~jobs:4 ~reps cells in
  let identical = csv rows_seq = csv rows_par4 in
  check "determinism (jobs=1 vs jobs=4 CSV)" identical
    "parallel grid produced different bytes than sequential";
  print_string (csv rows_seq);
  Printf.printf "determinism: jobs=1 vs jobs=4 CSV %s\n%!"
    (if identical then "byte-identical" else "DIFFER");
  (* Pool hammer. *)
  let pool_exact, pool_quiescent = pool_hammer () in
  check "pool hammer accounting" pool_exact "checkout/release counters drifted";
  check "pool hammer quiescence" pool_quiescent "buffers leaked";
  Printf.printf "pool hammer: %d domains x %d pairs, accounting %s, %s\n%!"
    hammer_domains hammer_iters
    (if pool_exact then "exact" else "DRIFTED")
    (if pool_quiescent then "quiescent" else "LEAKED");
  (* Speedup (skipped, loudly, below 2 domains). *)
  let s = measure_speedup ~reps cells in
  print_speedup s;
  check "speedup" s.pass
    (Printf.sprintf "%.2fx < required" s.factor);
  (match !mode with
  | Smoke -> ()
  | Full ->
    let elapsed = Unix.gettimeofday () -. t0 in
    let json =
      json_of ~cells ~reps ~identical ~speedup:s ~pool_exact ~pool_quiescent ~elapsed
    in
    let oc = open_out !out_path in
    output_string oc json;
    close_out oc;
    Printf.printf "wrote %s\n%!" !out_path);
  if !failures > 0 then exit 1;
  if !mode = Smoke then print_endline "bench-smoke ok"
