(* The untraced end-to-end run: repeated set-up + transfer over inputs
   drawn from the seed. *)

open Rmcast

let seconds_since ns = Int64.to_float (Int64.sub (Span.now_ns ()) ns) /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let print_context ~workload ~seed ~rev ~nproc =
  Printf.printf
    "context: {\"workload\": %S, \"seed\": %d, \"rev\": %S, \"nproc\": %d, \"ocaml\": %S, \
     \"udp_batch_native\": %b, \"transport\": %S}\n%!"
    (Workload.to_string workload) seed rev nproc Sys.ocaml_version Udp_batch.native
    (match workload with
    | Workload.Udp_bulk -> "loopback unicast fan-out"
    | Workload.Sim_exact_rlnc | Workload.Sim_aggregate -> "none (simulated)")

type sample = {
  input : int;
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  outcome : Workload.outcome;
}

(* A run first transfers [counted] inputs drawn from the seed once each,
   then cycles through the first [timed] of them, whole cycles only, until
   the time is up (at least one cycle).

   - Protocol counts are pooled over the first pass: enough transmission
     groups to make naks_per_tg steady across seeds, and a pure function
     of the seed (on the sim tiers a repeated input must reproduce its
     counts exactly).
   - Time per timed input is its fastest repeat, and goodput is those
     inputs' bytes over the sum of those times.  The host alternates
     between phases of several seconds in which the same loop runs up to
     2x slower; the fastest repeat of each input is what stays put from
     run to run.
   - Set-up time is the median over the timed inputs of each one's
     fastest set-up, for the same reason. *)
let counted = function
  | Workload.Udp_bulk -> 8
  | Workload.Sim_exact_rlnc -> 63
  | Workload.Sim_aggregate -> 32

(* Few timed inputs, so each repeats often enough to catch a fast phase;
   their costs differ by only a few percent.  Short transfers on the sim
   tiers serve the same end. *)
let timed _ = 4

let input_seed ~seed i = Rng.derive_seed seed [| 17; i |]

(* Run the workload's checks on one transfer; returns the failure reasons
   (empty when it passed).  [previous] is an earlier transfer of the same
   input, if any. *)
let check w ~previous o =
  let delivery =
    if o.Workload.failed > 0 then
      [ Printf.sprintf "%d of %d receivers ejected, mismatched or timed out" o.failed o.receivers ]
    else []
  in
  let repeat =
    match (w, previous) with
    | (Workload.Sim_exact_rlnc | Workload.Sim_aggregate), Some p
      when Workload.signature p <> Workload.signature o ->
      [ Printf.sprintf "sim counts did not repeat: %s vs %s" (Workload.signature o)
          (Workload.signature p) ]
    | _ -> []
  in
  delivery @ repeat

(* The udp_bulk profile once more on the exact sim tier (R = 8, p = 0.02,
   loopback-like 50 us one-way delay), printed beside the UDP counts. *)
let cross_tier ~seed ~tx_per_packet ~naks_per_tg =
  let input = Rng.create ~seed:(Workload.sub_seed seed 1) () in
  let data =
    Workload.payloads input ~bytes:(Workload.message_bytes ~traced:false Workload.Udp_bulk)
      ~size:Workload.udp_profile.payload_size
  in
  let network =
    Network.independent (Rng.create ~seed:(Workload.sub_seed seed 3) ())
      ~receivers:Workload.udp_receivers ~p:Workload.udp_loss
  in
  let config = Np.config_of_profile ~delay:5e-5 Workload.udp_profile in
  let sim =
    Np.run ~config ~network ~rng:(Rng.create ~seed:(Workload.sub_seed seed 4) ()) ~data ()
    |> Workload.np_outcome ~bytes:0
  in
  Printf.printf
    "cross-tier udp_bulk profile: udp tx_per_packet=%.4f naks_per_tg=%.3f | exact sim \
     tx_per_packet=%.4f naks_per_tg=%.3f | eq.6 E[M]=%.4f\n"
    tx_per_packet naks_per_tg (Workload.tx_per_packet sim)
    (Workload.naks_per_tg sim)
    (Endhost.np_mean_transmissions ~p:Workload.udp_loss ~k:Workload.udp_profile.k
       ~receivers:Workload.udp_receivers)

let end_to_end w ~seed ~seconds =
  let started = Span.now_ns () in
  let counted = counted w and timed = timed w in
  let transfer input =
    let t0 = Span.now_ns () in
    let transfer = (Workload.setup w ~seed:(input_seed ~seed input)).transfer in
    let setup_s = seconds_since t0 in
    (* Each transfer starts with the earlier ones' garbage collected, so
       none pays for another's major GC work. *)
    Gc.compact ();
    let c0 = cpu_s () and t1 = Span.now_ns () in
    let outcome = transfer () in
    let s = { input; setup_s; wall_s = seconds_since t1; cpu_s = cpu_s () -. c0; outcome } in
    Printf.printf
      "transfer input=%d setup_s=%.4f wall_s=%.4f cpu_s=%.4f E[M]=%.4f naks/tg=%.3f\n%!" input
      setup_s s.wall_s s.cpu_s (Workload.tx_per_packet outcome) (Workload.naks_per_tg outcome);
    s
  in
  let checked acc s =
    let previous =
      List.find_map (fun p -> if p.input = s.input then Some p.outcome else None) acc
    in
    let failed = check w ~previous s.outcome in
    List.iter (fun r -> Printf.printf "check failed (input %d): %s\n%!" s.input r) failed;
    let s =
      if failed = [] then s
      else { s with outcome = { s.outcome with failed = s.outcome.receivers } }
    in
    (s :: acc, failed)
  in
  (* The peak heap of the fresh process is read at a fixed point, after
     the warm-up and the first pass over the timed inputs: OCaml 5.1 never
     shrinks the heap, so later transfers would add a creep that depends
     on how many of them the time allowed. *)
  let peak_heap_MB = ref 0.0 in
  let rec loop acc reasons n =
    let cycle_pos = (n - counted) mod timed in
    if n >= counted + timed && cycle_pos = 0 && seconds_since started >= seconds then
      (acc, reasons)
    else begin
      let input = if n < counted then n else cycle_pos in
      let acc, failed = checked acc (transfer input) in
      if n = timed - 1 then
        peak_heap_MB :=
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
      loop acc (reasons @ failed) (n + 1)
    end
  in
  let _, warmup_failed = checked [] (transfer (-1)) in
  let acc, reasons = loop [] warmup_failed 0 in
  let samples = List.rev acc in
  let firsts = List.filteri (fun i _ -> i < counted) samples in
  let pooled f = List.fold_left (fun a s -> a + f s.outcome) 0 firsts in
  let tx_per_packet =
    float_of_int (pooled (fun o -> o.data_tx + o.parity_tx))
    /. float_of_int (pooled (fun o -> o.data_tx))
  in
  let naks_per_tg =
    float_of_int (pooled (fun o -> o.naks)) /. float_of_int (pooled (fun o -> o.tgs))
  in
  let fastest f input =
    List.fold_left (fun a s -> if s.input = input then Float.min a (f s) else a) infinity samples
  in
  let timed_firsts = List.filteri (fun i _ -> i < timed) samples in
  let sum_inputs f = List.fold_left (fun a s -> a +. f s) 0.0 timed_firsts in
  let total_mb = sum_inputs (fun s -> float_of_int s.outcome.bytes /. 1e6) in
  let goodput = total_mb /. sum_inputs (fun s -> fastest (fun s -> s.wall_s) s.input) in
  let cpu_per_mb = sum_inputs (fun s -> fastest (fun s -> s.cpu_s) s.input) /. total_mb in
  let em_failed = Workload.em_check w tx_per_packet in
  List.iter (fun r -> Printf.printf "check failed: %s\n" r) em_failed;
  let attempted = List.fold_left (fun a s -> a + s.outcome.receivers) 0 samples in
  (* A run whose E[M] leaves the band fails every receiver-transfer. *)
  let failed =
    if em_failed <> [] then attempted
    else List.fold_left (fun a s -> a + s.outcome.failed) 0 samples
  in
  (* The worst transfer's rate, so one failed transfer shows. *)
  let failure_rate =
    if em_failed <> [] then Metric.failure_rate ~attempted ~failed
    else
      List.fold_left
        (fun a s ->
          Float.max a (Metric.failure_rate ~attempted:s.outcome.receivers ~failed:s.outcome.failed))
        0.0 samples
  in
  let goodputs = List.map (fun s -> float_of_int s.outcome.bytes /. 1e6 /. s.wall_s) samples in
  Printf.printf
    "%s: %d transfers of %d bytes, %d inputs counted, %d timed; per-transfer goodput MB/s min \
     %.3f median %.3f max %.3f; from each timed input's fastest repeat %.3f\n"
    (Workload.to_string w) (List.length samples) (List.hd samples).outcome.bytes counted timed
    (List.fold_left Float.min infinity goodputs) (Metric.median goodputs)
    (List.fold_left Float.max 0.0 goodputs) goodput;
  (match Workload.em_gate w with
  | Some (bound, lower, upper) ->
    Printf.printf "%s: E[M] %.4f against eq.6 bound %.4f (band -%.0f%% / +%.0f%%)\n"
      (Workload.to_string w) tx_per_packet bound
      (100.0 *. lower) (100.0 *. upper)
  | None -> ());
  if w = Workload.Udp_bulk then cross_tier ~seed ~tx_per_packet ~naks_per_tg;
  let metrics =
    [
      Metric.make "goodput_MBps" "MB/s" goodput;
      Metric.make "cpu_s_per_MB" "s/MB" cpu_per_mb;
      Metric.make "tx_per_packet" "ratio" tx_per_packet;
      Metric.make "naks_per_tg" "count" naks_per_tg;
      Metric.make "peak_heap_MB" "MB" !peak_heap_MB;
      Metric.make "setup_s" "s"
        (Metric.median (List.map (fun s -> fastest (fun s -> s.setup_s) s.input) timed_firsts));
      Metric.make "failure_rate" "ratio" failure_rate;
    ]
  in
  (reasons = [] && em_failed = [], attempted, failed, metrics)
