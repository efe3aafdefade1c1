(* Aggregate goodput of N concurrent sessions on one engine versus the
   sequential baseline, in virtual time.

   The baseline is what the stack did before concurrent sessions existed:
   N back-to-back [Transfer.send] calls chained through [virtual_start] on
   one shared network — session i+1 cannot start until session i has
   drained.  The multiplexed run hands the same N payloads to
   [Transfer.send_all] and lets the reentrant NP mux interleave them: while
   one session sits out its NAK feedback window, the shared send slot
   serves the others, so the makespan of N sessions collapses toward the
   busy-time of the bottleneck instead of the sum of per-session
   (volley + feedback-wait) cycles.

   Goodput counts USER bytes delivered per virtual second across all
   sessions.  Everything runs in simulated time with fixed seeds, so the
   numbers are deterministic; results go to BENCH_MULTI.json (override
   with --out).  `--smoke` runs the recorded size, checks that every
   session byte-verifies and that 64 interleaved sessions achieve at least
   the sequential goodput, and fails unless each results row matches the
   file --out names byte for byte; it writes nothing and is run by
   `dune runtest`. *)

open Rmcast

let () = Harness.parse [ Smoke; Out "BENCH_MULTI.json" ]

let receivers = 100
let loss = 0.01

(* Disjoint per-session payloads: a cross-session mixup cannot verify. *)
let message sid bytes = String.init bytes (fun i -> Char.chr ((i * 31 + sid * 97 + 13) mod 256))

type row = {
  sessions : int;
  seq_makespan : float;
  mux_makespan : float;
  seq_goodput : float;  (* user bytes / virtual second *)
  mux_goodput : float;
  all_verified : bool;
}

let run_pair ~bytes n =
  (* Sequential baseline: session i+1 starts when session i finished
     ([Np.duration] is the absolute finish time of a chained run). *)
  let rng = Rng.create ~seed:(1_000 + n) () in
  let network = Network.independent (Rng.split rng) ~receivers ~p:loss in
  let clock = ref 0.0 in
  let seq_verified = ref true in
  for sid = 0 to n - 1 do
    let outcome =
      Transfer.send_exn ~virtual_start:!clock ~network ~rng:(Rng.split rng)
        (message sid bytes)
    in
    seq_verified := !seq_verified && outcome.Transfer.verified;
    clock := outcome.Transfer.report.Np.duration
  done;
  let seq_makespan = !clock in
  (* Interleaved: same payloads, one engine, all sessions enter at t = 0. *)
  let rng = Rng.create ~seed:(1_000 + n) () in
  let network = Network.independent (Rng.split rng) ~receivers ~p:loss in
  let summary =
    Error.get_exn
      (Transfer.send_all ~network ~rng:(Rng.split rng) (List.init n (fun sid -> message sid bytes)))
  in
  let total = float_of_int (n * bytes) in
  {
    sessions = n;
    seq_makespan;
    mux_makespan = summary.Transfer.makespan;
    seq_goodput = total /. seq_makespan;
    mux_goodput = total /. summary.Transfer.makespan;
    all_verified = !seq_verified && summary.Transfer.all_verified;
  }

let print_row r =
  Printf.printf
    "N=%-3d  sequential %8.3f s (%8.1f B/s)   interleaved %8.3f s (%8.1f B/s)   x%.2f  verified=%b\n%!"
    r.sessions r.seq_makespan r.seq_goodput r.mux_makespan r.mux_goodput
    (r.mux_goodput /. r.seq_goodput)
    r.all_verified

(* One results row of BENCH_MULTI.json, without its separating comma. *)
let json_row r =
  Printf.sprintf
    "    {\"sessions\": %d, \"seq_makespan_s\": %.3f, \"mux_makespan_s\": %.3f, \
     \"seq_goodput_bps\": %.1f, \"mux_goodput_bps\": %.1f, \"speedup\": %.3f, \
     \"all_verified\": %b}"
    r.sessions r.seq_makespan r.mux_makespan r.seq_goodput r.mux_goodput
    (r.mux_goodput /. r.seq_goodput)
    r.all_verified

let json_of_rows rows ~bytes ~elapsed =
  let buffer = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"unit\": \"user bytes delivered per virtual second, all sessions combined\",\n";
  p "    \"baseline\": \"N Transfer.send calls chained via virtual_start on one network\",\n";
  p "    \"receivers\": %d,\n" receivers;
  p "    \"loss\": %g,\n" loss;
  p "    \"bytes_per_session\": %d,\n" bytes;
  p "    \"profile\": \"k=%d h=%d pacing=%gs slot=%gs\",\n" Profile.default.Profile.k
    Profile.default.Profile.h Profile.default.Profile.pacing Profile.default.Profile.slot;
  p "    \"elapsed_s\": %.1f\n" elapsed;
  p "  },\n";
  p "  \"results\": [\n";
  List.iteri
    (fun i r -> p "%s%s\n" (json_row r) (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  Buffer.contents buffer

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let () =
  let t0 = Unix.gettimeofday () in
  let bytes = 40_000 in
  let rows = List.map (fun n -> run_pair ~bytes n) [ 1; 8; 64 ] in
  List.iter print_row rows;
  if !Harness.smoke then begin
    List.iter
      (fun r ->
        Harness.check (Printf.sprintf "N=%d verified" r.sessions) r.all_verified
          "a session did not byte-verify")
      rows;
    let n64 = List.find (fun r -> r.sessions = 64) rows in
    Harness.check "64 interleaved sessions >= sequential goodput"
      (n64.mux_goodput >= n64.seq_goodput)
      (Printf.sprintf "%.1f < %.1f B/s" n64.mux_goodput n64.seq_goodput);
    (* Virtual time is deterministic: every row is the recorded one. *)
    let recorded = In_channel.with_open_bin !Harness.out In_channel.input_all in
    List.iter
      (fun r ->
        Harness.check
          (Printf.sprintf "N=%d row matches %s" r.sessions !Harness.out)
          (contains recorded (json_row r))
          (String.trim (json_row r)))
      rows
  end
  else begin
    let elapsed = Unix.gettimeofday () -. t0 in
    Harness.write_file !Harness.out (json_of_rows rows ~bytes ~elapsed);
    Printf.printf "wrote %s\n" !Harness.out
  end;
  Harness.finish ()
