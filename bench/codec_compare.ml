(* The codec differential experiment: protocol NP's repair metrics and
   the raw decode cost for each wire-selectable codec, side by side.

   Two tiers:

   - {b protocol}: E[M] (transmissions per packet), repair rounds and
     feedback per TG from {!Runner.estimate}: every codec runs the same
     [Integrated_nak] repair loop ({!Tg_integrated}), where a repair
     reception counts only with the codec's innovation probability.  Three loss models: Bernoulli, the paper's
     §4.2 two-state Markov (Gilbert) burst channel, and a calibrated
     full-binary-tree network with shared upstream losses.  Each (channel,
     codec) pair reuses the same network seed, so the loss draws are
     identical and the codecs differ only in repair efficiency.
   - {b decode cost}: wall time to repair and decode a k-packet block
     after a fixed loss pattern, straight through {!Fec_block}'s
     receiver (repair payloads pre-encoded outside the timed region).

   `--smoke` (run by `dune runtest`) gates on: determinism
   (same seed twice -> bit-identical metric fields), the MDS coincidence
   (cauchy must reproduce rse's E[M] and rounds {e exactly} — an MDS
   codec makes zero innovation draws), the RSE-parity floor
   (RLNC E[M] within 5% of RSE under Bernoulli loss), and decode
   correctness for every codec.  The full run writes BENCH_CODEC.json (override: --out). *)

open Rmcast

let () = Harness.parse [ Smoke; Out "BENCH_CODEC.json"; Jobs ]

let codecs = Codec.all

(* --- protocol tier ------------------------------------------------------ *)

let p = 0.05
let mean_burst = 2.0
let send_rate = 25.0
let receivers = 100
let tree_height = 7 (* 2^7 = 128 receivers *)
let k = 16

type channel = Bernoulli | Gilbert | Tree

let channel_name = function
  | Bernoulli -> "bernoulli"
  | Gilbert -> "gilbert"
  | Tree -> "tree"

let channels = [ Bernoulli; Gilbert; Tree ]

let make_network channel rng =
  match channel with
  | Bernoulli -> Network.independent rng ~receivers ~p
  | Gilbert ->
    Network.temporal rng ~receivers ~make:(fun r -> Loss.markov2 r ~p ~mean_burst ~send_rate)
  | Tree -> Network.fbt rng ~height:tree_height ~p

(* The burst channel is time-driven: it needs the paper's packet spacing
   to see bursts at all. *)
let timing_of = function
  | Gilbert -> Timing.paper_burst
  | Bernoulli | Tree -> Timing.instantaneous

let scheme_of codec = Runner.Integrated_nak { a = 0; codec }

type sample = {
  channel : channel;
  codec : Codec.kind;
  reps : int;
  mean_m : float;
  ci_low : float;
  ci_high : float;
  rounds : float;
  feedback : float;
  wall : float;
}

(* One (channel, codec) point.  [seed] drives the network (shared across
   codecs so the loss draws are identical) and, xor-folded, the innovation
   stream a rateless codec consumes. *)
let run_protocol ~seed ~channel ~codec ~reps =
  let network = make_network channel (Rng.create ~seed ()) in
  let rng = Rng.create ~seed:(seed lxor 0x5eed) () in
  let est, wall =
    Harness.timed (fun () ->
        Runner.estimate network ~k ~scheme:(scheme_of codec) ~rng ~timing:(timing_of channel)
          ~reps ())
  in
  let ci_low, ci_high = Stats.Accumulator.confidence95 est.Runner.transmissions_per_packet in
  {
    channel;
    codec;
    reps;
    mean_m = Runner.mean_m est;
    ci_low;
    ci_high;
    rounds = Stats.Accumulator.mean est.Runner.rounds;
    feedback = Stats.Accumulator.mean est.Runner.feedback;
    wall;
  }

let print_sample s =
  Printf.printf "%-10s %-7s k=%-3d reps=%-5d E[M]=%.4f [%.4f, %.4f] rounds=%.3f fb=%.3f %8.2es\n%!"
    (channel_name s.channel)
    (Profile.codec_to_string s.codec)
    k s.reps s.mean_m s.ci_low s.ci_high s.rounds s.feedback s.wall

(* --- decode-cost tier --------------------------------------------------- *)

let decode_k = 32
let decode_payload = 1024
let decode_drops = 8

type cost = {
  kind : Codec.kind;
  blocks : int;
  blocks_per_s : float;
  mb_per_s : float; (* decoded data throughput *)
  repairs_consumed : int; (* on the measured pattern; = drops for MDS *)
  correct : bool;
}

(* Repair + decode one block [blocks] times: the decoder-side cost of
   losing the first [drops] data packets, with all candidate repair
   payloads pre-encoded outside the timed region.  RLNC may consume more
   than [drops] repairs; the budget is generous enough
   that a stall would show up as [correct = false], not an exception. *)
let run_decode_cost ~kind ~blocks =
  let codec = Codec.of_kind kind in
  let k = decode_k and drops = decode_drops in
  let h = drops + 56 in
  let rng = Rng.create ~seed:0xdec0de () in
  let data =
    Array.init k (fun _ -> Bytes.init decode_payload (fun _ -> Char.chr (Rng.int rng 256)))
  in
  let sender = Fec_block.Sender.create ~codec ~h data in
  let repairs = Array.init h (Fec_block.Sender.parity sender) in
  let consumed = ref 0 in
  let correct = ref true in
  let one () =
    let dec = Fec_block.Receiver.create ~codec ~k ~h in
    for i = drops to k - 1 do
      ignore (Fec_block.Receiver.add dec ~index:i data.(i))
    done;
    let j = ref 0 in
    while (not (Fec_block.Receiver.complete dec)) && !j < h do
      ignore (Fec_block.Receiver.add dec ~index:(k + !j) repairs.(!j));
      incr j
    done;
    consumed := !j;
    if not (Fec_block.Receiver.complete dec && Fec_block.Receiver.decode dec = data) then
      correct := false
  in
  one () (* warm up and verify before timing *);
  let (), decode_wall = Harness.timed (fun () -> for _ = 1 to blocks do one () done) in
  let wall = Float.max 1e-9 decode_wall in
  {
    kind;
    blocks;
    blocks_per_s = float_of_int blocks /. wall;
    mb_per_s = float_of_int (blocks * k * decode_payload) /. wall /. 1e6;
    repairs_consumed = !consumed;
    correct = !correct;
  }

let print_cost c =
  Printf.printf
    "decode %-7s k=%d P=%d drops=%d: %9.1f blocks/s %8.1f MB/s (%d repairs)%s\n%!"
    (Profile.codec_to_string c.kind)
    decode_k decode_payload decode_drops c.blocks_per_s c.mb_per_s c.repairs_consumed
    (if c.correct then "" else "  [WRONG DECODE]")

(* --- JSON --------------------------------------------------------------- *)

let json_of ~samples ~costs ~elapsed =
  let buffer = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let find channel codec =
    List.find (fun s -> s.channel = channel && s.codec = codec) samples
  in
  pr "{\n";
  pr "  \"meta\": {\n";
  pr "    \"note\": \"per channel, every codec sees the same network seed (identical loss \
      draws); every codec runs the same Integrated_nak repair loop with the codec's \
      innovation probability (1 for the MDS codecs)\",\n";
  pr "    \"k\": %d, \"receivers\": %d, \"tree_receivers\": %d,\n" k receivers
    (1 lsl tree_height);
  pr "    \"p\": %g, \"mean_burst\": %g, \"send_rate\": %g,\n" p mean_burst send_rate;
  List.iter (fun (key, value) -> pr "    %S: %s,\n" key value) (Harness.context ());
  pr "    \"elapsed_s\": %.2f\n" elapsed;
  pr "  },\n";
  pr "  \"protocol\": [\n";
  List.iteri
    (fun i s ->
      pr
        "    {\"channel\": %S, \"codec\": %S, \"reps\": %d, \"mean_m\": %.6f, \"ci95\": \
         [%.6f, %.6f], \"rounds\": %.4f, \"feedback\": %.4f, \"wall_s\": %.4f}%s\n"
        (channel_name s.channel)
        (Profile.codec_to_string s.codec)
        s.reps s.mean_m s.ci_low s.ci_high s.rounds s.feedback s.wall
        (if i = List.length samples - 1 then "" else ","))
    samples;
  pr "  ],\n";
  pr "  \"decode_cost\": [\n";
  List.iteri
    (fun i c ->
      pr
        "    {\"codec\": %S, \"k\": %d, \"payload\": %d, \"drops\": %d, \"blocks\": %d, \
         \"blocks_per_s\": %.1f, \"mb_per_s\": %.2f, \"repairs_consumed\": %d}%s\n"
        (Profile.codec_to_string c.kind)
        decode_k decode_payload decode_drops c.blocks c.blocks_per_s c.mb_per_s
        c.repairs_consumed
        (if i = List.length costs - 1 then "" else ","))
    costs;
  pr "  ],\n";
  let ratio codec = (find Bernoulli codec).mean_m /. (find Bernoulli `Rse).mean_m in
  pr "  \"summary\": {\n";
  pr "    \"rlnc_over_rse_bernoulli\": %.4f\n" (ratio `Rlnc);
  pr "  }\n";
  pr "}\n";
  Buffer.contents buffer

(* --- smoke gates -------------------------------------------------------- *)

(* RLNC loses an innovation draw with probability ~q^-1 per repair, so its
   Bernoulli E[M] sits within a fraction of a percent of RSE's; 5% only
   trips on a broken innovation model. *)
let rse_parity_ceiling = 1.05

let smoke () =
  let reps = 150 in
  let seed = 42 in
  let rse = run_protocol ~seed ~channel:Bernoulli ~codec:`Rse ~reps in
  let cauchy = run_protocol ~seed ~channel:Bernoulli ~codec:`Cauchy ~reps in
  let rlnc = run_protocol ~seed ~channel:Bernoulli ~codec:`Rlnc ~reps in
  let rlnc' = run_protocol ~seed ~channel:Bernoulli ~codec:`Rlnc ~reps in
  List.iter print_sample [ rse; cauchy; rlnc ];
  Harness.check "determinism"
    (rlnc.mean_m = rlnc'.mean_m && rlnc.rounds = rlnc'.rounds && rlnc.ci_low = rlnc'.ci_low)
    (Printf.sprintf "seed %d twice: E[M] %.17g vs %.17g" seed rlnc.mean_m rlnc'.mean_m);
  Harness.check "mds coincidence (cauchy = rse machine)"
    (cauchy.mean_m = rse.mean_m && cauchy.rounds = rse.rounds)
    (Printf.sprintf "E[M] %.17g vs %.17g, rounds %.17g vs %.17g" cauchy.mean_m rse.mean_m
       cauchy.rounds rse.rounds);
  Harness.check "rse-parity floor (rlnc)"
    (rlnc.mean_m <= rse_parity_ceiling *. rse.mean_m)
    (Printf.sprintf "rlnc %.4f vs rse %.4f = %.3fx > %.2fx" rlnc.mean_m rse.mean_m
       (rlnc.mean_m /. rse.mean_m) rse_parity_ceiling);
  List.iter
    (fun kind ->
      let c = run_decode_cost ~kind ~blocks:25 in
      print_cost c;
      Harness.check
        (Printf.sprintf "decode correctness (%s)" (Profile.codec_to_string kind))
        c.correct "repaired block differs from the original data")
    codecs

(* --- main --------------------------------------------------------------- *)

let () =
  if !Harness.smoke then smoke ()
  else begin
    let t0 = Unix.gettimeofday () in
    let reps = 1500 in
    (* (channel, codec) points are independent (each builds its network
       and RNG from the point's seed), so shard them across the domain
       pool; results gather in grid order, identical for any --jobs. *)
    let points =
      Array.of_list
        (List.concat_map
           (fun channel -> List.map (fun codec -> (channel, codec)) codecs)
           channels)
    in
    let samples =
      Array.to_list
        (Parallel.map ~pool:(Parallel.pool_sized !Harness.jobs) (Array.length points)
           (fun i ->
             let channel, codec = points.(i) in
             (* One seed per channel, shared by all codecs on that channel. *)
             let seed =
               match channel with Bernoulli -> 1001 | Gilbert -> 1002 | Tree -> 1003
             in
             run_protocol ~seed ~channel ~codec ~reps))
    in
    List.iter print_sample samples;
    let costs = List.map (fun kind -> run_decode_cost ~kind ~blocks:400) codecs in
    List.iter print_cost costs;
    let elapsed = Unix.gettimeofday () -. t0 in
    let json = json_of ~samples ~costs ~elapsed in
    Harness.write_file !Harness.out json;
    let rse_m =
      (List.find (fun s -> s.channel = Bernoulli && s.codec = `Rse) samples).mean_m
    in
    let rlnc_m =
      (List.find (fun s -> s.channel = Bernoulli && s.codec = `Rlnc) samples).mean_m
    in
    Printf.printf "headline: rlnc %.3fx rse E[M] under Bernoulli; wrote %s\n"
      (rlnc_m /. rse_m) !Harness.out;
    List.iter
      (fun c ->
        Harness.check
          (Printf.sprintf "decode correctness (%s)" (Profile.codec_to_string c.kind))
          c.correct "repaired block differs from the original data")
      costs;
    Harness.check "rse-parity floor (rlnc)"
      (rlnc_m <= rse_parity_ceiling *. rse_m)
      (Printf.sprintf "rlnc %.4f vs rse %.4f" rlnc_m rse_m)
  end;
  Harness.finish ()
