(* FEC datapath throughput: MB/s of encode/decode across (k, h, payload)
   grids for two kernel tiers —

     scalar    the seed implementation (byte-at-a-time product-table loops,
               one pass over all k data packets per parity row), rebuilt
               here from the exported scalar kernels as the baseline;
     kernel    the current library path: the C GF(2^8) kernel, one call
               per (row, source) pair ([Rse.encode]/[Rse.decode]); the
               SIMD path it runs is recorded as [meta.gf_kernel].

   The grid also times GF(2^16) codecs ([m] = 16 rows), on the kernel
   tier only: the scalar kernels are GF(2^8) byte loops.

   MB/s counts SOURCE DATA bytes processed per second (k * payload per
   encode or decode call), the paper's §8 notion of coding throughput.

   Results go to BENCH_RSE.json (override with --out) so successive PRs
   can track the perf trajectory.  `--smoke` runs a tiny quota plus a
   differential correctness check and writes nothing — run by
   `dune runtest` so kernel regressions fail loudly and fast.

   Trials of all tiers are interleaved, and each row records the median
   and q1-q3 of its tier's trials. *)

open Rmcast

let () = Harness.parse [ Smoke; Out "BENCH_RSE.json" ]

(* --- the seed-equivalent scalar baseline ------------------------------- *)

let encode_scalar codec data =
  let k = Rse.k codec and h = Rse.h codec in
  let len = Bytes.length data.(0) in
  Array.init h (fun j ->
      let row = Rse.generator_row codec (k + j) in
      let parity = Bytes.make len '\000' in
      for c = 0 to k - 1 do
        if row.(c) <> 0 then
          Gf.mul_add_into_scalar Gf.gf256 ~dst:parity ~src:data.(c) ~coeff:row.(c)
      done;
      parity)

(* Scalar reconstruction of the first [losses] data packets from parities,
   mirroring the seed decode: invert the chosen k x k system, then one
   scalar multiply-accumulate pass per missing packet. *)
let decode_scalar codec received_idx received_payload ~missing =
  let k = Rse.k codec in
  let field = Rse.field codec in
  let system = Gmatrix.create field ~rows:k ~cols:k in
  for r = 0 to k - 1 do
    let row = Rse.generator_row codec received_idx.(r) in
    for c = 0 to k - 1 do
      Gmatrix.set system r c row.(c)
    done
  done;
  let inverse = Gmatrix.invert system in
  let len = Bytes.length received_payload.(0) in
  List.map
    (fun j ->
      let out = Bytes.make len '\000' in
      for r = 0 to k - 1 do
        let coeff = Gmatrix.get inverse j r in
        if coeff <> 0 then
          Gf.mul_add_into_scalar field ~dst:out ~src:received_payload.(r) ~coeff
      done;
      out)
    missing

(* --- measurement ------------------------------------------------------- *)

(* Drop the first [min h k] data packets and decode from the rest plus
   parities. *)
let lossy_received ~k ~h data parity =
  let losses = min h k in
  Array.append
    (Array.init (k - losses) (fun r -> (losses + r, data.(losses + r))))
    (Array.init losses (fun j -> (k + j, parity.(j))))

type sample = {
  op : string;
  tier : string;
  m : int;
  k : int;
  h : int;
  payload : int;
  mbps : Harness.spread;
}

let measure_grid_point ~quota ~trials ~m ~k ~h ~payload =
  let rng = Rng.create ~seed:(k * 100_000 + h * 1_000 + payload) () in
  let codec = Rse.create ~field:(Gf.create m) ~k ~h () in
  let data =
    Array.init k (fun _ -> Bytes.init payload (fun _ -> Char.chr (Rng.int rng 256)))
  in
  let received = lossy_received ~k ~h data (Rse.encode codec data) in
  let received_idx = Array.map fst received and received_payload = Array.map snd received in
  let losses = min h k in
  let missing = List.init losses Fun.id in
  let scalar tier = if m = 8 then [ tier ] else [] in
  let encode_tiers =
    scalar ("scalar", fun () -> ignore (encode_scalar codec data))
    @ [ ("kernel", fun () -> ignore (Rse.encode codec data)) ]
  in
  let decode_tiers =
    if losses = 0 then []
    else
      scalar
        ( "scalar",
          fun () -> ignore (decode_scalar codec received_idx received_payload ~missing) )
      @ [ ("kernel", fun () -> ignore (Rse.decode codec received)) ]
  in
  let ops = [ ("encode", encode_tiers); ("decode", decode_tiers) ] in
  let data_bytes = float_of_int (k * payload) in
  let runs = Hashtbl.create 8 in
  for _ = 1 to trials do
    List.iter
      (fun (op, tiers) ->
        List.iter
          (fun (tier, f) ->
            let mbps = data_bytes /. Harness.mean_seconds ~quota f /. 1e6 in
            let key = (op, tier) in
            Hashtbl.replace runs key
              (mbps :: Option.value ~default:[] (Hashtbl.find_opt runs key)))
          tiers)
      ops
  done;
  List.concat_map
    (fun (op, tiers) ->
      List.map
        (fun (tier, _) ->
          { op; tier; m; k; h; payload; mbps = Harness.spread (Hashtbl.find runs (op, tier)) })
        tiers)
    ops

(* --- smoke: differential correctness across tiers ---------------------- *)

let smoke_check () =
  List.iter
    (fun (k, h, payload) ->
      let rng = Rng.create ~seed:(k + h + payload) () in
      let codec = Rse.create ~k ~h () in
      let data =
        Array.init k (fun _ -> Bytes.init payload (fun _ -> Char.chr (Rng.int rng 256)))
      in
      let reference = encode_scalar codec data in
      let encoded = Rse.encode codec data in
      Harness.check
        (Printf.sprintf "encode kernel (k=%d h=%d p=%d)" k h payload)
        (Array.for_all2 Bytes.equal reference encoded) "differs from the scalar reference";
      if h > 0 then begin
        let decoded = Rse.decode codec (lossy_received ~k ~h data encoded) in
        Harness.check
          (Printf.sprintf "decode kernel (k=%d h=%d p=%d)" k h payload)
          (Array.for_all2 Bytes.equal data decoded) "differs from the source data"
      end)
    [ (7, 3, 1021); (20, 7, 1024); (13, 5, 64); (5, 2, 7) ];
  (* GF(2^16): h losses rebuilt from h parities. *)
  let k = 20 and h = 7 in
  let rng = Rng.create ~seed:16 () in
  let codec = Rse.create ~field:(Gf.create 16) ~k ~h () in
  let data = Array.init k (fun _ -> Bytes.init 1024 (fun _ -> Char.chr (Rng.int rng 256))) in
  let decoded = Rse.decode codec (lossy_received ~k ~h data (Rse.encode codec data)) in
  Harness.check "GF(2^16) roundtrip (k=20 h=7 p=1024)"
    (Array.for_all2 Bytes.equal data decoded)
    "differs from the source data"

(* --- JSON -------------------------------------------------------------- *)

let json_of_samples samples ~trials ~headline_scalar ~headline_kernel ~elapsed =
  let buffer = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"unit\": \"MB/s of source data processed (k * payload bytes per call)\",\n";
  p "    \"trials\": %d,\n" trials;
  p "    \"spread\": \"median and q1-q3 of the interleaved trials per tier\",\n";
  List.iter (fun (key, value) -> p "    %S: %s,\n" key value) (Harness.context ());
  p "    \"elapsed_s\": %.1f\n" elapsed;
  p "  },\n";
  p "  \"headline\": {\n";
  p "    \"config\": \"encode k=20 h=7 payload=1024\",\n";
  p "    \"scalar_mbps\": %.1f,\n" headline_scalar;
  p "    \"kernel_mbps\": %.1f,\n" headline_kernel;
  p "    \"speedup\": %.2f\n" (headline_kernel /. headline_scalar);
  p "  },\n";
  p "  \"results\": [\n";
  List.iteri
    (fun i s ->
      p "    {\"op\": %S, \"tier\": %S, \"m\": %d, \"k\": %d, \"h\": %d, \"payload\": %d, %s}%s\n"
        s.op s.tier s.m s.k s.h s.payload (Harness.spread_json "mbps" s.mbps)
        (if i = List.length samples - 1 then "" else ","))
    samples;
  p "  ]\n";
  p "}\n";
  Buffer.contents buffer

let print_sample s =
  Printf.printf "%-6s %-8s m=%-2d k=%-3d h=%-2d payload=%-5d %8.1f MB/s (q1 %.1f, q3 %.1f)\n%!"
    s.op s.tier s.m s.k s.h s.payload s.mbps.median s.mbps.q1 s.mbps.q3

let () =
  if !Harness.smoke then begin
    (* Tiny measurement quota: mainly a correctness gate that also fails
       loudly if a tier collapses (e.g. dispatch silently lost). *)
    smoke_check ();
    List.iter print_sample
      (measure_grid_point ~quota:0.02 ~trials:2 ~m:8 ~k:20 ~h:7 ~payload:1024)
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let trials = 7 in
    let grid =
      [
        (8, 7, 3, 1024);
        (8, 20, 7, 256);
        (8, 20, 7, 1024);
        (8, 20, 7, 16384);
        (8, 100, 30, 1024);
        (8, 50, 15, 65536);
        (16, 20, 7, 1024);
        (16, 20, 7, 16384);
      ]
    in
    let samples =
      List.concat_map
        (fun (m, k, h, payload) ->
          let samples = measure_grid_point ~quota:0.08 ~trials ~m ~k ~h ~payload in
          List.iter print_sample samples;
          samples)
        grid
    in
    let find tier =
      List.find
        (fun s ->
          s.op = "encode" && s.tier = tier && s.m = 8 && s.k = 20 && s.h = 7 && s.payload = 1024)
        samples
    in
    let headline_scalar = (find "scalar").mbps.median
    and headline_kernel = (find "kernel").mbps.median in
    let elapsed = Unix.gettimeofday () -. t0 in
    let json = json_of_samples samples ~trials ~headline_scalar ~headline_kernel ~elapsed in
    Harness.write_file !Harness.out json;
    Printf.printf "headline: scalar %.1f MB/s -> kernel %.1f MB/s (%.2fx); wrote %s\n"
      headline_scalar headline_kernel
      (headline_kernel /. headline_scalar)
      !Harness.out
  end;
  Harness.finish ()
