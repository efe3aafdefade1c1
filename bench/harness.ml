(* Shared plumbing for the bench executables: one command line, one
   clock, atomic output files, and the figure harness's helpers. *)

(* --- command line -------------------------------------------------------- *)

(* Small inputs, gates only, nothing written ([--smoke]); main.exe's
   [--fast] sets it too, for reduced figure grids. *)
let smoke = ref false

(* Where the full run writes: a BENCH_*.json file, or main.exe's CSV
   directory. *)
let out = ref ""

(* Total parallelism for the sweep engine: every fig bench evaluates its
   grid through [series] below, which shards the points across this many
   domains.  1 = sequential.  Point seeds are derived from coordinates,
   never from the schedule, so any value produces identical CSVs. *)
let jobs = ref (Domain.recommended_domain_count ())

type flag = Smoke | Out of string | Jobs

let specs = function
  | Smoke ->
    [
      ("--smoke", Arg.Set smoke, " small inputs, gates only, nothing written");
      ("--fast", Arg.Set smoke, " same as --smoke");
    ]
  | Out default ->
    out := default;
    [ ("--out", Arg.Set_string out, Printf.sprintf "PATH output (default %s)" default) ]
  | Jobs ->
    [
      ( "--jobs",
        Arg.Int (fun n -> if n < 1 then raise (Arg.Bad "--jobs must be >= 1") else jobs := n),
        "N domains (default: the recommended count)" );
    ]

(* Parse [Sys.argv] against the shared [flags] plus an executable's
   [extra] options.  A bad value or an unknown argument prints the usage
   and exits 2. *)
let parse ?(extra = []) flags =
  let name = Filename.basename Sys.executable_name in
  Arg.parse
    (Arg.align (List.concat_map specs flags @ extra))
    (fun arg -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" arg)))
    (Printf.sprintf "usage: %s [options]" name)

(* --- gates ---------------------------------------------------------------- *)

let failures = ref 0

(* A failed gate is reported on stderr and counted; [finish] turns the
   count into the exit status. *)
let check name ok detail =
  if not ok then begin
    Printf.eprintf "GATE FAIL: %s (%s)\n%!" name detail;
    incr failures
  end

let finish () =
  if !failures > 0 then exit 1;
  if !smoke then print_endline "bench-smoke ok"

(* --- clock --------------------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* Repeat [f] until [quota] seconds elapse, returning seconds per call. *)
let mean_seconds ~quota f =
  f () (* warm up: first call builds tables and pools *);
  let (), calibration = timed f in
  let reps = max 1 (int_of_float (quota /. Float.max 1e-9 calibration)) in
  let (), t = timed (fun () -> for _ = 1 to reps do f () done) in
  t /. float_of_int reps

(* Bechamel microbenchmark: OLS estimate of seconds per run. *)
let seconds_per_run ~name f =
  let open Bechamel in
  let quota = if !smoke then 0.10 else 0.30 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let test = Test.make ~name (Staged.stage f) in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let nanoseconds =
    Hashtbl.fold
      (fun _ estimate acc ->
        match Analyze.OLS.estimates estimate with Some (t :: _) -> t | _ -> acc)
      results Float.nan
  in
  nanoseconds *. 1e-9

let ensure_out_dir () =
  (* mkdir, tolerating a concurrent (or earlier) creation: the existence
     check and the mkdir are not atomic, so another process racing us —
     two benches sharing an out dir — must not crash the run. *)
  try Sys.mkdir !out 0o755 with
  | Sys_error _ when Sys.file_exists !out -> ()

(* Atomic file write: a reader (plot script, CI artifact collection)
   never observes a half-written file — the content lands under a temp
   name in the same directory and is renamed into place. *)
let write_file path content =
  let temp = path ^ ".tmp" in
  let oc = open_out temp in
  output_string oc content;
  close_out oc;
  Sys.rename temp path

let write_csv ~figure series =
  ensure_out_dir ();
  let path = Filename.concat !out (Printf.sprintf "fig%02d.csv" figure) in
  write_file path (Rmcast.Sweep.to_csv series);
  (* Companion gnuplot script: `gnuplot figNN.gp` renders figNN.svg. *)
  let gp = Filename.concat !out (Printf.sprintf "fig%02d.gp" figure) in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "set datafile separator ','\n";
  Buffer.add_string buffer "set terminal svg size 800,560 dynamic\n";
  Buffer.add_string buffer (Printf.sprintf "set output 'fig%02d.svg'\n" figure);
  Buffer.add_string buffer "set logscale x\n";
  Buffer.add_string buffer "set xlabel 'x'\nset ylabel 'y'\nset key left top\n";
  Buffer.add_string buffer "plot \\\n";
  List.iteri
    (fun i { Rmcast.Sweep.label; _ } ->
      Buffer.add_string buffer
        (Printf.sprintf
           "  'fig%02d.csv' using 2:(strcol(1) eq '%s' ? $3 : NaN) with linespoints title '%s'%s\n"
           figure label label
           (if i = List.length series - 1 then "" else ", \\")))
    series;
  write_file gp (Buffer.contents buffer);
  Printf.printf "  [csv] %s (+ %s)\n%!" path gp

let heading ~figure title =
  Printf.printf "\n=== Figure %d: %s ===\n%!" figure title

let print_table series = Format.printf "%a@." Rmcast.Sweep.pp_table series

let receivers_grid () =
  Rmcast.Sweep.log_spaced_ints ~from:1 ~upto:1_000_000 ~per_decade:(if !smoke then 2 else 4)

(* Monte-Carlo repetitions scaled to the population size so large points do
   not dominate the wall clock. *)
let reps_for receivers =
  let base = if !smoke then 60 else 200 in
  if receivers <= 4096 then base
  else max 30 (base * 4096 / receivers)

let simulate ~scheme ~k ?timing ~net_of_rng ~seed () =
  let rng = Rmcast.Rng.create ~seed () in
  let net = net_of_rng rng in
  let reps = reps_for (Rmcast.Network.receivers net) in
  let estimate = Rmcast.Runner.estimate net ~k ~scheme ?timing ~reps () in
  Rmcast.Runner.mean_m estimate

(* Domain-parallel drop-in for [Sweep.series]: the grid points are
   evaluated on [!jobs] domains.  [f] must be a pure function of its
   argument — every fig bench's point function either is analytic or
   seeds its own simulation from the x value (as [simulate] does) — so
   sequential and parallel runs produce identical series. *)
let series ~label ~xs ~f =
  Rmcast.Sweep.series_cells ~jobs:!jobs ~seed:0 ~label ~xs
    ~f:(fun ~seed:_ x -> f x)
    ()
