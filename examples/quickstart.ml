(* Quickstart: the three layers of the library in ~60 lines.

   1. Raw erasure coding: encode a transmission group, lose packets,
      reconstruct.
   2. One-call reliable multicast of a message to 1000 receivers over a
      lossy simulated network.
   3. The matching prediction from the paper's analysis.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* --- 1. Erasure coding --------------------------------------------- *)
  let rng = Rmcast.Rng.create ~seed:2026 () in
  let k = 7 and h = 3 in
  let codec = Rmcast.Codec.of_kind `Rse in
  let data =
    Array.init k (fun i ->
        Bytes.of_string (Printf.sprintf "packet %d: %s" i (String.make 20 (Char.chr (65 + i)))))
  in
  let sender = Rmcast.Fec_block.Sender.create ~codec ~h data in
  Rmcast.Fec_block.Sender.precompute sender;
  Printf.printf "Encoded a (%d,%d) FEC block: %d data + %d parity packets.\n" k (k + h) k h;

  (* Lose data packets 1, 4 and 6 — any k of the n packets suffice. *)
  let parity j = Rmcast.Fec_block.Sender.parity sender j in
  let received =
    [ (0, data.(0)); (2, data.(2)); (3, data.(3)); (5, data.(5));
      (7, parity 0); (8, parity 1); (9, parity 2) ]
  in
  let receiver = Rmcast.Fec_block.Receiver.create ~codec ~k ~h in
  List.iter (fun (index, payload) -> ignore (Rmcast.Fec_block.Receiver.add receiver ~index payload))
    received;
  let decoded = Rmcast.Fec_block.Receiver.decode receiver in
  assert (Array.for_all2 Bytes.equal decoded data);
  Printf.printf "Lost packets 1, 4, 6; reconstructed all %d from %d survivors.\n\n" k
    (List.length received);

  (* --- 2. Reliable multicast over a lossy network -------------------- *)
  let receivers = 1000 and p = 0.01 in
  let network = Rmcast.Network.independent (Rmcast.Rng.split rng) ~receivers ~p in
  let message = String.concat "\n" (List.init 200 (fun i -> Printf.sprintf "line %04d of the bulk transfer" i)) in
  let outcome = Rmcast.Transfer.send_exn ~network ~rng:(Rmcast.Rng.split rng) message in
  let report = outcome.Rmcast.Transfer.report in
  Printf.printf "Multicast %d bytes to %d receivers at %.0f%% loss with protocol NP:\n"
    (String.length message) receivers (100.0 *. p);
  Printf.printf "  verified           : %b\n" outcome.Rmcast.Transfer.verified;
  Printf.printf "  data packets       : %d\n" report.Rmcast.Np.data_tx;
  Printf.printf "  parity packets     : %d (repairing every receiver's losses)\n"
    report.Rmcast.Np.parity_tx;
  Printf.printf "  NAKs (after suppression): %d, suppressed: %d\n" report.Rmcast.Np.naks_sent
    report.Rmcast.Np.naks_suppressed;
  let m = Rmcast.Np.transmissions_per_packet report in
  Printf.printf "  transmissions per packet E[M]: %.3f\n\n" m;

  (* --- 3. The paper's prediction ------------------------------------- *)
  let population = Rmcast.Receivers.homogeneous ~p ~count:receivers in
  let bound =
    Rmcast.Integrated.expected_transmissions_unbounded
      ~k:Rmcast.Profile.default.Rmcast.Profile.k ~population ()
  in
  let nofec = Rmcast.Arq.expected_transmissions ~population in
  Printf.printf "Paper's analysis (eq. 6): integrated-FEC bound %.3f vs plain ARQ %.3f.\n" bound
    nofec;
  Printf.printf "This NP run achieved %.3f - %.1f%% of the ARQ bandwidth.\n" m (100.0 *. m /. nofec)
