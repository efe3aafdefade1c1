(* Figure 1: encoding/decoding throughput of the RSE coder (packets/s)
   versus redundancy h/k, for TG sizes k = 7, 20, 100 with 1-KByte packets.

   The paper measured Rizzo's C coder on a Pentium 133; we measure this
   OCaml coder on the current machine.  The comparison targets are the
   shapes: throughput inversely proportional to h (per-packet coding work
   is h multiply-accumulates), larger k lower at equal redundancy, and
   decode slightly slower than encode. *)

open Rmcast

let packet_size = 1024

let redundancies () =
  if !Harness.smoke then [ 0.15; 0.3; 0.6; 1.0 ]
  else [ 0.1; 0.15; 0.2; 0.3; 0.4; 0.5; 0.7; 0.85; 1.0 ]

let measure_point ~k ~h =
  let rng = Rng.create ~seed:(k * 1000 + h) () in
  let codec = Codec.of_kind `Rse in
  let data = Array.init k (fun _ -> Bytes.init packet_size (fun _ -> Char.chr (Rng.int rng 256))) in
  let encode () =
    let sender = Fec_block.Sender.create ~codec ~h data in
    Fec_block.Sender.precompute sender;
    sender
  in
  let encode_time =
    Harness.seconds_per_run ~name:(Printf.sprintf "encode k=%d h=%d" k h) (fun () ->
        ignore (encode ()))
  in
  (* Decode with l = min h k data packets lost (the paper's "h out of every
     k data packets are lost"), repaired from parities. *)
  let losses = min h k in
  let sender = encode () in
  let received =
    Array.append
      (Array.of_seq
         (Seq.filter_map
            (fun i -> if i < losses then None else Some (i, data.(i)))
            (Seq.init k Fun.id)))
      (Array.init losses (fun j -> (k + j, Fec_block.Sender.parity sender j)))
  in
  let decode_time =
    Harness.seconds_per_run ~name:(Printf.sprintf "decode k=%d h=%d" k h) (fun () ->
        let receiver = Fec_block.Receiver.create ~codec ~k ~h in
        Array.iter (fun (index, payload) -> ignore (Fec_block.Receiver.add receiver ~index payload))
          received;
        ignore (Fec_block.Receiver.decode receiver))
  in
  (* Data packets processed per second of coding work. *)
  (float_of_int k /. encode_time, float_of_int k /. decode_time)

let run () =
  Harness.heading ~figure:1 "RSE coder throughput vs redundancy (1 KiB packets)";
  let series =
    List.concat_map
      (fun k ->
        let points =
          List.map
            (fun redundancy ->
              let h = max 1 (int_of_float (Float.round (redundancy *. float_of_int k))) in
              let encode_rate, decode_rate = measure_point ~k ~h in
              (100.0 *. float_of_int h /. float_of_int k, encode_rate, decode_rate))
            (redundancies ())
        in
        [
          {
            Sweep.label = Printf.sprintf "encode-k%d" k;
            points = List.map (fun (x, e, _) -> (x, e)) points;
          };
          {
            Sweep.label = Printf.sprintf "decode-k%d" k;
            points = List.map (fun (x, _, d) -> (x, d)) points;
          };
        ])
      [ 7; 20; 100 ]
  in
  Format.printf "x = redundancy h/k [%%], y = data packets processed per second@.";
  Harness.print_table series;
  Harness.write_csv ~figure:1 series
