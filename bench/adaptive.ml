(* Adaptive vs static redundancy under drifting Gilbert loss, with and
   without receiver churn ("flash crowd + churn").

   The channel starts harsh (bursty, p = 8%) and drifts mild (p = 1%) at a
   fixed virtual time — the scenario the paper's conclusion warns about:
   a one-shot plan drawn for the harsh phase keeps paying its proactive
   parity tail long after the channel has recovered.  The static
   controller does exactly that; the EWMA and Gilbert-aware controllers
   watch the NAK/round feedback, re-run the planner online and retune the
   not-yet-sent TGs down.

   The churn variant layers membership dynamics on top: one receiver
   leaves for good, one flaps (leaves and rejoins), and a flash crowd of
   late joiners arrives mid-transfer and must catch up purely from parity
   repair.  The loss process still draws one fate per (transmission,
   receiver) whether or not a receiver is present, so the churn variant
   perturbs delivery, never the RNG stream.

   Everything runs on the virtual-time Np.Mux with fixed seeds, so every
   number is deterministic; results go to BENCH_ADAPT.json (override with
   --out).  `--smoke` (run by `dune runtest`) enforces the hard gates:

   - the static run accepts zero retunes and its capture replays through
     the sans-IO core without divergence (bit-exactness witness);
   - adaptive (ewma) repair overhead <= static overhead under the drift;
   - every churn run completes with every *surviving* receiver delivered;
   - the whole scenario matrix is deterministic (two runs, same JSON).

   Any invariant violation dumps the offending flow's raw event/effect
   capture next to the JSON for offline inspection, and exits non-zero. *)

open Rmcast

let () = Harness.parse [ Smoke; Out "BENCH_ADAPT.json"; Jobs ]

let receivers = 16
let k = 8
let send_rate = 1000.0 (* packets per second: spacing 1 ms *)

(* Harsh phase first: plan the static configuration for it, as an operator
   who measured the channel at transfer start would. *)
let p_harsh = 0.08
let p_mild = 0.01
let burst_harsh = 3.0
let burst_mild = 1.5

let static_plan = Planner.plan ~k ~p:p_harsh ~receivers ()

let config =
  {
    Np.default_config with
    k;
    (* Well past k: a late joiner needs a full volley's worth of parities
       on top of whatever the harsh phase already spent. *)
    h = 3 * k;
    proactive = static_plan.Planner.proactive;
    payload_size = 64;
    spacing = 1.0 /. send_rate;
    slot = 0.01;
    delay = 0.025;
  }

let tg_count = 40
let packets = tg_count * k

(* The drift lands a third of the way through the initial volley sweep, so
   the controller has closed enough harsh windows to have locked on and
   enough mild TGs remain for the retune to matter. *)
let switch_at = float_of_int packets *. config.Np.spacing /. 3.0

(* Churn script: receiver 1 leaves for good, receiver 2 flaps (leaves just
   after the drift, rejoins a beat later), and the last four receivers are
   a flash crowd joining together at the drift.  The flap window sits past
   the flash-crowd join so the two catch-ups drain *disjoint* TG budgets —
   overlapping them is a deliberate over-commitment that exhausts even a
   generous h (per-TG budgets are finite by design, paper §5). *)
let flash_crowd = [ 12; 13; 14; 15 ]

let churn_script =
  { Np.Mux.receiver = 1; at = 0.06; action = `Leave }
  :: { Np.Mux.receiver = 2; at = switch_at +. 0.02; action = `Leave }
  :: { Np.Mux.receiver = 2; at = switch_at +. 0.12; action = `Join }
  :: List.map (fun r -> { Np.Mux.receiver = r; at = switch_at; action = `Join }) flash_crowd

let payload i = Bytes.init config.Np.payload_size (fun j -> Char.chr ((i * 131 + j * 7) mod 256))

type row = {
  controller : Profile.controller;
  churned : bool;
  data_tx : int;
  parity_tx : int;
  overhead : float; (* parity transmissions per data packet *)
  retunes : int;
  duration : float;
  survivors : int;
  survivors_complete : bool;
  verified : bool;
  p_hat : float option;
}

type outcome = { row : row; recorder : Recorder.t; violations : string list }

let run ~controller ~churned ~seed =
  let rng = Rng.create ~seed () in
  let network =
    Network.temporal (Rng.split rng) ~receivers ~make:(fun rng ->
        let mild_rng = Rng.split rng in
        Loss.phased ~switch_at
          (Loss.markov2 rng ~p:p_harsh ~mean_burst:burst_harsh ~send_rate)
          (Loss.markov2 mild_rng ~p:p_mild ~mean_burst:burst_mild ~send_rate))
  in
  let mux = Np.Mux.create (Engine.create ()) in
  let recorder = Recorder.create () in
  let churn = if churned then churn_script else [] in
  let flow =
    Np.Mux.add_flow mux ~config:{ config with Np.controller } ~recorder ~churn ~network
      ~rng:(Rng.split rng)
      ~data:(Array.init packets payload)
      ()
  in
  Np.Mux.run mux;
  let report = Np.Mux.report flow in
  let survivors = ref 0 and survivors_complete = ref true in
  for r = 0 to receivers - 1 do
    if Np.Mux.present flow ~receiver:r then begin
      incr survivors;
      if Np.Mux.completed_at flow ~receiver:r = None then survivors_complete := false
    end
  done;
  let row =
    {
      controller;
      churned;
      data_tx = report.Np.data_tx;
      parity_tx = report.Np.parity_tx;
      overhead = float_of_int report.Np.parity_tx /. float_of_int report.Np.data_tx;
      retunes = Np.Mux.retunes flow;
      duration = report.Np.duration;
      survivors = !survivors;
      survivors_complete = !survivors_complete;
      verified = report.Np.delivered_intact;
      p_hat = Option.map (fun (p, _, _) -> p) (Np.Mux.controller_estimates flow);
    }
  in
  let violations = ref [] in
  let invariant name ok = if not ok then violations := name :: !violations in
  invariant "flow drained to completion" (Np.Mux.complete flow);
  invariant "every surviving receiver delivered" !survivors_complete;
  invariant "surviving receivers verified their payloads" row.verified;
  invariant "static controller never retunes"
    (controller <> `Static || row.retunes = 0);
  { row; recorder; violations = List.rev !violations }

let scenario_name controller churned =
  Printf.sprintf "%s%s" (Profile.controller_to_string controller)
    (if churned then "+churn" else "")

let print_row r =
  Printf.printf
    "%-14s data=%d parity=%-4d overhead=%.3f retunes=%-2d duration=%6.3f s \
     survivors=%d/%d complete=%b verified=%b%s\n%!"
    (scenario_name r.controller r.churned)
    r.data_tx r.parity_tx r.overhead r.retunes r.duration r.survivors receivers
    r.survivors_complete r.verified
    (match r.p_hat with None -> "" | Some p -> Printf.sprintf " p_hat=%.4f" p)

let json_of_row r =
  Printf.sprintf
    "    {\"scenario\": \"%s\", \"controller\": \"%s\", \"churn\": %b, \"data_tx\": %d, \
     \"parity_tx\": %d, \"overhead\": %.6f, \"retunes\": %d, \"duration_s\": %.6f, \
     \"survivors\": %d, \"survivors_complete\": %b, \"verified\": %b%s}"
    (scenario_name r.controller r.churned)
    (Profile.controller_to_string r.controller)
    r.churned r.data_tx r.parity_tx r.overhead r.retunes r.duration r.survivors
    r.survivors_complete r.verified
    (match r.p_hat with None -> "" | Some p -> Printf.sprintf ", \"p_hat\": %.6f" p)

let json_of_rows rows =
  let buffer = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"unit\": \"parity transmissions per data packet (repair overhead)\",\n";
  p
    "    \"channel\": \"per-receiver Gilbert, p=%g burst=%g drifting to p=%g burst=%g at \
     t=%.3fs\",\n"
    p_harsh burst_harsh p_mild burst_mild switch_at;
  p "    \"receivers\": %d,\n" receivers;
  p "    \"tgs\": %d,\n" tg_count;
  p "    \"profile\": \"k=%d h=%d a=%d pacing=%gs slot=%gs\",\n" config.Np.k config.Np.h
    config.Np.proactive config.Np.spacing config.Np.slot;
  p "    \"churn\": \"receiver 1 leaves, receiver 2 flaps, %d-receiver flash crowd joins \
     at the drift\"\n"
    (List.length flash_crowd);
  p "  },\n";
  p "  \"results\": [\n";
  List.iteri
    (fun i r ->
      p "%s%s\n" (json_of_row r) (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  Buffer.contents buffer

let matrix = [ (`Static, false); (`Ewma, false); (`Gilbert_aware, false);
               (`Static, true); (`Ewma, true); (`Gilbert_aware, true) ]

(* Scenarios are independent virtual-time flows with fixed seeds, so the
   matrix shards across the domain pool; results gather in matrix order,
   identical for any --jobs (the determinism gate below runs it twice). *)
let run_matrix ~seed =
  let cells = Array.of_list matrix in
  Array.to_list
    (Parallel.map ~pool:(Parallel.pool_sized !Harness.jobs) (Array.length cells) (fun i ->
         let c, ch = cells.(i) in
         run ~controller:c ~churned:ch ~seed))

let () =
  let outcomes = run_matrix ~seed:42 in
  List.iter (fun o -> print_row o.row) outcomes;
  (* Invariant violations dump the offending capture for offline replay. *)
  List.iter
    (fun o ->
      List.iter
        (fun v ->
          let path = Printf.sprintf "BENCH_ADAPT_%s_violation.capture"
              (scenario_name o.row.controller o.row.churned) in
          Recorder.save ~path o.recorder;
          Harness.check (scenario_name o.row.controller o.row.churned) false
            (Printf.sprintf "%s; capture -> %s" v path))
        o.violations)
    outcomes;
  let find c ch = (List.find (fun o -> o.row.controller = c && o.row.churned = ch) outcomes).row in
  (* Hard gates, enforced in both modes (full runs should not publish a
     JSON that violates them either). *)
  let static = find `Static false and ewma = find `Ewma false in
  Harness.check "ewma overhead <= static"
    (ewma.overhead <= static.overhead)
    (Printf.sprintf "ewma %.3f > static %.3f under drifting loss" ewma.overhead
       static.overhead);
  Harness.check "ewma retunes" (ewma.retunes >= 1) "never retuned under drifting loss";
  (* Static bit-exactness witness: a single-receiver static flow whose
     capture carries the full replay meta (sim receivers share one damping
     RNG, so only a one-receiver capture maps onto Np_replay's
     per-receiver-seed model) must replay through the sans-IO core without
     divergence. *)
  (let seed = 97 in
   let data = Array.init (4 * k) payload in
   let rng = Rng.create ~seed () in
   let network = Network.independent (Rng.split rng) ~receivers:1 ~p:0.05 in
   let mux = Np.Mux.create (Engine.create ()) in
   let recorder = Recorder.create () in
   let machine_seed = 7_001 in
   Np_replay.record_setup recorder
     ~config:
       {
         Np_machine.k = config.Np.k;
         h = config.Np.h;
         proactive = config.Np.proactive;
         pre_encode = config.Np.pre_encode;
         slot = config.Np.slot;
         codec = config.Np.codec;
       }
     ~payload_size:config.Np.payload_size ~receivers:1 ~sessions:[| data |]
     ~rx_seeds:[| machine_seed |] ();
   let flow =
     Np.Mux.add_flow mux ~config ~recorder ~network
       ~rng:(Rng.create ~seed:machine_seed ())
       ~data ()
   in
   Np.Mux.run mux;
   Harness.check "replay witness completes" (Np.Mux.complete flow) "flow did not complete";
   match Np_replay.replay recorder with
   | Error e -> Harness.check "static capture replays" false ("unusable: " ^ e)
   | Ok { Np_replay.divergence = Some d; _ } ->
     Harness.check "static capture replays" false ("diverged: " ^ d)
   | Ok { Np_replay.divergence = None; _ } -> ());
  if !Harness.smoke then begin
    (* Determinism gate: the same seeds must reproduce BENCH_ADAPT.json
       byte-for-byte. *)
    let again = run_matrix ~seed:42 in
    Harness.check "scenario matrix determinism"
      (String.equal
         (json_of_rows (List.map (fun o -> o.row) outcomes))
         (json_of_rows (List.map (fun o -> o.row) again)))
      "two identical runs differ"
  end
  else begin
    Harness.write_file !Harness.out (json_of_rows (List.map (fun o -> o.row) outcomes));
    Printf.printf "wrote %s\n" !Harness.out
  end;
  Harness.finish ()
