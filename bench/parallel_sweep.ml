(* The domain-parallel experiment engine, measured and gated.

   The workload is the repo's bread and butter: a grid of exact-tier
   [Runner.estimate] cells (receivers x k, Integrated_nak, Bernoulli
   loss) evaluated through [Sweep.run_cells].  Each cell's seed is
   derived from its (receivers, k) coordinates, never from the
   schedule, so the results are a pure function of (grid, base seed);
   a test (test/test_parallel.ml) holds the smoke grid's jobs=1 and
   jobs=4 CSVs byte-identical.

   Gate (`--smoke`, wired to @bench-smoke, hence @ci): speedup,
   wall(jobs=1) / wall(jobs=domains) >= 3.0 with >= 4 domains, >= 1.2
   with 2-3; on single-core hosts the gate is SKIPPED, loudly logged,
   never silently passed.  Each side's wall is its fastest over
   [pairs] interleaved (jobs=1, jobs=domains) runs, as perfbench takes
   its timings: a single 2-5 ms run reads the host's momentary load
   more than the pool.  Beside the reading, a co-run reference times a
   pure, non-allocating loop twice on one domain and once on each of
   two domains; near 2x means the host gave the run two free cores, so
   a failing gate beside a reference near 1x names the host, not the
   pool.

   The full run writes BENCH_PARALLEL.json (override: --out). *)

open Rmcast

let () = Harness.parse [ Smoke; Out "BENCH_PARALLEL.json" ]

let domains = Domain.recommended_domain_count ()

(* --- the grid ----------------------------------------------------------- *)

let p = 0.01
let base_seed = 0xbeef

let grid ~fast =
  let receivers = if fast then [ 30; 60; 120; 240 ] else [ 100; 200; 400; 800; 1600 ] in
  let ks = if fast then [ 7; 20 ] else [ 7; 20; 100 ] in
  Array.of_list
    (List.concat_map (fun r -> List.map (fun k -> (r, k)) ks) receivers)

let eval ~reps ~seed (receivers, k) =
  let network = Network.independent (Rng.create ~seed ()) ~receivers ~p in
  Runner.estimate network ~k ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps ()

let run_grid ~jobs ~reps cells =
  Harness.timed (fun () ->
      Sweep.run_cells ~jobs ~seed:base_seed
        ~coords:(fun _ (receivers, k) -> [| receivers; k |])
        ~f:(fun ~seed cell -> eval ~reps ~seed cell)
        cells)

(* --- co-run reference ------------------------------------------------------ *)

(* A pure xorshift loop, about as long as one smoke grid: no allocation,
   no shared state, so two copies on two domains take as long as one
   unless the host withholds a core. *)
let spin () =
  let x = ref 0x2545F491 in
  for _ = 1 to 1_000_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  ignore (Sys.opaque_identity !x)

let spin_twice () =
  spin ();
  spin ()

let spin_on_two_domains () =
  let other = Domain.spawn spin in
  spin ();
  Domain.join other

(* --- speedup ------------------------------------------------------------ *)

type speedup = {
  pairs : int;
  par_jobs : int;
  wall_seq : float;
  wall_par : float;
  factor : float;
  threshold : float option; (* None = gate skipped *)
  pass : bool; (* true when skipped *)
  reference : float * float; (* co-run loop: twice on 1 domain, once on each of 2 *)
}

(* Each side's fastest wall over [pairs] rounds; a round runs every side
   once, in order, so all sides sample the same moments of the host. *)
let fastest ~pairs sides =
  let best = Array.map (fun _ -> infinity) sides in
  for _ = 1 to pairs do
    Array.iteri (fun i f -> best.(i) <- Float.min best.(i) (snd (Harness.timed f))) sides
  done;
  best

let measure_speedup ~pairs ~reps cells =
  if domains < 2 then begin
    let _, wall_seq = run_grid ~jobs:1 ~reps cells in
    { pairs = 1; par_jobs = 1; wall_seq; wall_par = wall_seq; factor = 1.0; threshold = None;
      pass = true; reference = (nan, nan) }
  end
  else begin
    let threshold = if domains >= 4 then 3.0 else 1.2 in
    let grid jobs () = ignore (run_grid ~jobs ~reps cells) in
    match fastest ~pairs [| grid 1; grid domains; spin_twice; spin_on_two_domains |] with
    | [| wall_seq; wall_par; one; two |] ->
      let factor = wall_seq /. Float.max 1e-9 wall_par in
      { pairs; par_jobs = domains; wall_seq; wall_par; factor; threshold = Some threshold;
        pass = factor >= threshold; reference = (one, two) }
    | _ -> assert false
  end

let print_speedup s =
  match s.threshold with
  | None ->
    Printf.printf
      "speedup gate SKIPPED: single-core host (recommended_domain_count = %d); \
       sequential grid took %.1f ms\n%!"
      domains (1e3 *. s.wall_seq)
  | Some threshold ->
    Printf.printf
      "speedup (fastest of %d pairs): jobs=1 %.1f ms, jobs=%d %.1f ms -> %.2fx (gate >= \
       %.1fx: %s)\n%!"
      s.pairs (1e3 *. s.wall_seq) s.par_jobs (1e3 *. s.wall_par) s.factor threshold
      (if s.pass then "pass" else "FAIL");
    let one, two = s.reference in
    Printf.printf
      "co-run reference (same rounds): loop x2 on 1 domain %.1f ms, x1 on each of 2 \
       domains %.1f ms -> %.2fx (2.00x = two free cores)\n%!"
      (1e3 *. one) (1e3 *. two) (one /. Float.max 1e-9 two)

(* --- JSON --------------------------------------------------------------- *)

let json_of ~cells ~reps ~speedup:s ~elapsed =
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
  pr "  \"speedup\": {\n";
  pr "    \"wall_seq_s\": %.4f,\n" s.wall_seq;
  (match s.threshold with
  | None ->
    pr "    \"gate\": \"skipped (domains=%d < 2)\",\n" domains;
    pr "    \"threshold\": null, \"par_jobs\": null, \"wall_par_s\": null, \
        \"factor\": null\n"
  | Some threshold ->
    pr "    \"gate\": %S, \"pairs\": %d,\n" (if s.pass then "pass" else "fail") s.pairs;
    pr "    \"threshold\": %.1f, \"par_jobs\": %d, \"wall_par_s\": %.4f, \
        \"factor\": %.2f\n"
      threshold s.par_jobs s.wall_par s.factor);
  pr "  }\n";
  pr "}\n";
  Buffer.contents buffer

(* --- main --------------------------------------------------------------- *)

let () =
  let fast = !Harness.smoke in
  let t0 = Unix.gettimeofday () in
  let cells = grid ~fast in
  let reps = if fast then 40 else 120 in
  (* Warm up, one domain and then the pool the gate times, so the timed
     runs below do not pay first-run costs (code, codec and memo tables,
     the pool's domains) and no idle extra domains outlive the warm-up. *)
  ignore (run_grid ~jobs:1 ~reps cells);
  ignore (run_grid ~jobs:domains ~reps cells);
  (* Speedup and the co-run reference (skipped, loudly, below 2 domains). *)
  let pairs = if fast then 10 else 3 in
  let s = measure_speedup ~pairs ~reps cells in
  print_speedup s;
  if not fast then begin
    let elapsed = Unix.gettimeofday () -. t0 in
    Harness.write_file !Harness.out (json_of ~cells ~reps ~speedup:s ~elapsed);
    Printf.printf "wrote %s\n%!" !Harness.out
  end;
  Harness.check "speedup" s.pass (Printf.sprintf "%.2fx < required" s.factor);
  Harness.finish ()
