(* Ablations over the design choices called out in DESIGN.md §4:
   - systematic-Vandermonde (Rse) vs Cauchy encoding,
   - GF(2^8) 64K product table vs log/antilog lookups in the packet kernel,
   - per-round vs per-packet NAK feedback in the end-host model,
   - proactive parities a = 0..4 (bandwidth vs feedback/latency). *)

open Rmcast

let packet_size = 1024

let codec_construction_comparison () =
  Printf.printf "\n--- ablation: encoder construction (k=20, h=10, 1 KiB) ---\n%!";
  let rng = Rng.create ~seed:42 () in
  let data = Array.init 20 (fun _ -> Bytes.init packet_size (fun _ -> Char.chr (Rng.int rng 256))) in
  let encode kind () =
    Fec_block.Sender.precompute (Fec_block.Sender.create ~codec:(Codec.of_kind kind) ~h:10 data)
  in
  let t_sys = Harness.seconds_per_run ~name:"rse-systematic" (encode `Rse) in
  let t_cauchy = Harness.seconds_per_run ~name:"cauchy" (encode `Cauchy) in
  Printf.printf "systematic Vandermonde : %8.1f blocks/s (MDS by construction)\n" (1.0 /. t_sys);
  Printf.printf "Cauchy                 : %8.1f blocks/s (MDS by construction, O(kh) setup)\n"
    (1.0 /. t_cauchy)

(* A log/antilog multiply-accumulate, as used when the 64K table does not
   fit in cache (McAuley's small-memory variant). *)
let mul_add_log_table field ~dst ~src ~coeff =
  if coeff <> 0 then
    for i = 0 to Bytes.length src - 1 do
      let s = Char.code (Bytes.get src i) in
      let product = Gf.mul field coeff s in
      Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lxor product))
    done

let gf_kernel_comparison () =
  Printf.printf
    "\n--- ablation: GF(2^8) kernel, each C path vs 64K product table vs log/antilog ---\n%!";
  let rng = Rng.create ~seed:43 () in
  let src = Bytes.init packet_size (fun _ -> Char.chr (Rng.int rng 256)) in
  let dst = Bytes.make packet_size '\000' in
  let field = Gf.gf256 in
  let t_paths =
    List.map
      (fun path ->
        ( "C kernel " ^ path,
          Harness.seconds_per_run ~name:path (fun () ->
              Gf.For_testing.mul_add_into_range ~path field ~dst ~src ~coeff:0x7B ~pos:0
                ~len:packet_size) ))
      Gf.For_testing.paths
  in
  let t_table =
    Harness.seconds_per_run ~name:"table" (fun () ->
        Gf.mul_add_into_scalar field ~dst ~src ~coeff:0x7B)
  in
  let t_log =
    Harness.seconds_per_run ~name:"log" (fun () ->
        mul_add_log_table field ~dst ~src ~coeff:0x7B)
  in
  let mbps t = 1e-6 *. float_of_int packet_size /. t in
  List.iter
    (fun (name, t) -> Printf.printf "%-20s: %8.1f MB/s\n" name (mbps t))
    (t_paths @ [ ("64K product table", t_table); ("log/antilog", t_log) ])

let nak_granularity_comparison () =
  Printf.printf "\n--- ablation: NAK per round vs NAK per missing packet (NP model) ---\n%!";
  Printf.printf "%-10s %14s %14s\n" "R" "recv rate/rnd" "recv rate/pkt";
  List.iter
    (fun receivers ->
      let per_round = Endhost.np ~p:0.01 ~k:20 ~receivers () in
      let per_packet = Endhost.np ~nak_per_packet:true ~p:0.01 ~k:20 ~receivers () in
      Printf.printf "%-10d %14.4f %14.4f\n" receivers
        (per_round.Endhost.receiver /. 1000.0)
        (per_packet.Endhost.receiver /. 1000.0))
    [ 100; 10_000; 1_000_000 ]

let proactive_parities_sweep () =
  Printf.printf "\n--- ablation: proactive parities a (k=20, p=0.01, R=10^4) ---\n%!";
  let population = Receivers.homogeneous ~p:0.01 ~count:10_000 in
  Printf.printf "%-4s %10s %18s %22s\n" "a" "E[M]" "E[extra NAKed]" "P(no repair round)";
  List.iter
    (fun a ->
      Printf.printf "%-4d %10.4f %18.4f %22.6f\n" a
        (Integrated.expected_transmissions_unbounded ~k:20 ~a ~population ())
        (Integrated.expected_extra ~k:20 ~a ~population)
        (Integrated.group_extra_cdf ~k:20 ~a ~population 0))
    [ 0; 1; 2; 3; 4 ]

let interleaving_depth_sweep () =
  Printf.printf "\n--- ablation: explicit interleaving depth under burst loss ---\n%!";
  Printf.printf "(integrated FEC 2, k=7, p=0.01, burst=4; interleave D blocks by stretching\n";
  Printf.printf " the packet spacing D-fold, the paper's equivalent timing view)\n";
  Printf.printf "%-8s %10s\n" "depth" "E[M]";
  List.iter
    (fun depth ->
      let timing =
        { Timing.spacing = 0.040 *. float_of_int depth; feedback_delay = 0.300 }
      in
      let m =
        Harness.simulate
          ~scheme:(Runner.Integrated_nak { a = 0; codec = `Rse })
          ~k:7 ~timing
          ~net_of_rng:(fun rng ->
            Network.temporal rng ~receivers:1000 ~make:(fun rng ->
                Loss.markov2 rng ~p:0.01 ~mean_burst:4.0 ~send_rate:25.0))
          ~seed:(4200 + depth) ()
      in
      Printf.printf "%-8d %10.4f\n" depth m)
    [ 1; 2; 4; 8 ]

let run () =
  Printf.printf "\n=== Ablations ===\n%!";
  codec_construction_comparison ();
  gf_kernel_comparison ();
  nak_granularity_comparison ();
  proactive_parities_sweep ();
  interleaving_depth_sweep ()
