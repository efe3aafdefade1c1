(* Benchmark entry point:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <id>]

   --trace 0 repeats set-up + transfer of the workload until [seconds]
   have passed and prints the end-to-end metrics (medians over the
   repeats); --trace 1 runs the traced split instead and prints the
   per-layer metrics.  The last line of standard output is the JSON
   result; the exit code is non-zero when any check failed. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rev = ref "unknown" and spans_out = ref "" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME udp_bulk | sim_exact_rlnc | sim_aggregate");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--rev", Arg.Set_string rev, "ID source revision to record");
      ("--nproc", Arg.Set_int nproc, "N CPUs of the machine to record (the process may be pinned)");
      ("--spans-out", Arg.Set_string spans_out, "PATH where the traced run writes its spans");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  match Workload.of_string !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w ->
    Bench.print_context ~workload:w ~seed:!seed ~rev:!rev ~nproc:!nproc;
    let correct, attempted, failed, metrics =
      if !trace = 0 then Bench.end_to_end w ~seed:!seed ~seconds:!seconds
      else Layers.run w ~seed:!seed ~spans_out:!spans_out
    in
    print_endline (Metric.result_line ~correct ~attempted ~failed metrics);
    exit (if correct then 0 else 1)
