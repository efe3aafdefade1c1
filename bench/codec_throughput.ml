(* FEC datapath throughput: MB/s of encode/decode across (k, h, payload)
   grids for three kernel tiers —

     scalar    the seed implementation (byte-at-a-time product-table loops,
               one pass over all k data packets per parity row), rebuilt
               here from the exported scalar kernels as the baseline;
     word      the current library path: word-wide kernels + blocked
               multi-parity accumulation ([Rse.encode]/[Rse.decode]);
     parallel  the word tier striped across domains
               ([Rse.encode_parallel]/[Rse.decode_parallel]).

   MB/s counts SOURCE DATA bytes processed per second (k * payload per
   encode or decode call), the paper's §8 notion of coding throughput.

   Results go to BENCH_RSE.json (override with --out) so successive PRs
   can track the perf trajectory.  `--smoke` runs a tiny quota plus a
   differential correctness check and writes nothing — run by
   `dune runtest` so kernel regressions fail loudly and fast.

   Trials of all tiers are interleaved and each tier keeps its best trial,
   which keeps the recorded ratios stable on noisy shared machines. *)

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

type sample = { op : string; tier : string; k : int; h : int; payload : int; mbps : float }

let measure_grid_point ~quota ~trials ~k ~h ~payload =
  let rng = Rng.create ~seed:(k * 100_000 + h * 1_000 + payload) () in
  let codec = Rse.create ~k ~h () in
  let data =
    Array.init k (fun _ -> Bytes.init payload (fun _ -> Char.chr (Rng.int rng 256)))
  in
  let parity = Rse.encode codec data in
  let losses = min h k in
  let received_idx = Array.init k (fun r -> if r < k - losses then losses + r else k + (r - (k - losses))) in
  let received_payload =
    Array.map (fun i -> if i < k then data.(i) else parity.(i - k)) received_idx
  in
  let received = Array.map2 (fun i p -> (i, p)) received_idx received_payload in
  let missing = List.init losses Fun.id in
  let encode_tiers =
    [
      ("scalar", fun () -> ignore (encode_scalar codec data));
      ("word", fun () -> ignore (Rse.encode codec data));
      ("parallel", fun () -> ignore (Rse.encode_parallel ~min_bytes:0 codec data));
    ]
  in
  let decode_tiers =
    if losses = 0 then []
    else
      [
        ( "scalar",
          fun () -> ignore (decode_scalar codec received_idx received_payload ~missing) );
        ("word", fun () -> ignore (Rse.decode codec received));
        ("parallel", fun () -> ignore (Rse.decode_parallel ~min_bytes:0 codec received));
      ]
  in
  let data_bytes = float_of_int (k * payload) in
  let best = Hashtbl.create 8 in
  for _ = 1 to trials do
    List.iter
      (fun (op, tiers) ->
        List.iter
          (fun (tier, f) ->
            let mbps = data_bytes /. Harness.mean_seconds ~quota f /. 1e6 in
            let key = (op, tier) in
            match Hashtbl.find_opt best key with
            | Some prev when prev >= mbps -> ()
            | _ -> Hashtbl.replace best key mbps)
          tiers)
      [ ("encode", encode_tiers); ("decode", decode_tiers) ]
  done;
  List.concat_map
    (fun (op, tiers) ->
      List.map
        (fun (tier, _) -> { op; tier; k; h; payload; mbps = Hashtbl.find best (op, tier) })
        tiers)
    [ ("encode", encode_tiers); ("decode", decode_tiers) ]

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
      let word = Rse.encode codec data in
      let par = Rse.encode_parallel ~min_bytes:0 codec data in
      Harness.check
        (Printf.sprintf "encode word (k=%d h=%d p=%d)" k h payload)
        (Array.for_all2 Bytes.equal reference word) "differs from the scalar reference";
      Harness.check
        (Printf.sprintf "encode parallel (k=%d h=%d p=%d)" k h payload)
        (Array.for_all2 Bytes.equal reference par) "differs from the scalar reference";
      if h > 0 then begin
        let losses = min h k in
        let received =
          Array.append
            (Array.init (k - losses) (fun r -> (losses + r, data.(losses + r))))
            (Array.init losses (fun j -> (k + j, word.(j))))
        in
        let decoded = Rse.decode codec received in
        let decoded_par = Rse.decode_parallel ~min_bytes:0 codec received in
        Harness.check
          (Printf.sprintf "decode word (k=%d h=%d p=%d)" k h payload)
          (Array.for_all2 Bytes.equal data decoded) "differs from the source data";
        Harness.check
          (Printf.sprintf "decode parallel (k=%d h=%d p=%d)" k h payload)
          (Array.for_all2 Bytes.equal data decoded_par) "differs from the source data"
      end)
    [ (7, 3, 1021); (20, 7, 1024); (13, 5, 64); (5, 2, 7) ]

(* --- JSON -------------------------------------------------------------- *)

let json_of_samples samples ~trials ~headline_scalar ~headline_word ~domains ~elapsed =
  let buffer = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"unit\": \"MB/s of source data processed (k * payload bytes per call)\",\n";
  p "    \"grid\": \"best-of-%d interleaved trials per tier\",\n" trials;
  p "    \"domains\": %d,\n" domains;
  p "    \"elapsed_s\": %.1f\n" elapsed;
  p "  },\n";
  p "  \"headline\": {\n";
  p "    \"config\": \"encode k=20 h=7 payload=1024\",\n";
  p "    \"scalar_mbps\": %.1f,\n" headline_scalar;
  p "    \"word_mbps\": %.1f,\n" headline_word;
  p "    \"speedup\": %.2f\n" (headline_word /. headline_scalar);
  p "  },\n";
  p "  \"results\": [\n";
  List.iteri
    (fun i s ->
      p "    {\"op\": %S, \"tier\": %S, \"k\": %d, \"h\": %d, \"payload\": %d, \"mbps\": %.1f}%s\n"
        s.op s.tier s.k s.h s.payload s.mbps
        (if i = List.length samples - 1 then "" else ","))
    samples;
  p "  ]\n";
  p "}\n";
  Buffer.contents buffer

let () =
  if !Harness.smoke then begin
    (* Tiny measurement quota: mainly a correctness gate that also fails
       loudly if a tier collapses (e.g. dispatch silently lost). *)
    smoke_check ();
    let samples = measure_grid_point ~quota:0.02 ~trials:2 ~k:20 ~h:7 ~payload:1024 in
    List.iter
      (fun s -> Printf.printf "%-6s %-8s k=%-3d h=%-2d payload=%-5d %8.1f MB/s\n" s.op s.tier s.k s.h s.payload s.mbps)
      samples
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let trials = 5 in
    let grid =
      [
        (7, 3, 1024);
        (20, 7, 256);
        (20, 7, 1024);
        (20, 7, 16384);
        (100, 30, 1024);
        (50, 15, 65536);
      ]
    in
    let samples =
      List.concat_map
        (fun (k, h, payload) ->
          let samples = measure_grid_point ~quota:0.08 ~trials ~k ~h ~payload in
          List.iter
            (fun s ->
              Printf.printf "%-6s %-8s k=%-3d h=%-2d payload=%-5d %8.1f MB/s\n%!" s.op s.tier
                s.k s.h s.payload s.mbps)
            samples;
          samples)
        grid
    in
    let find tier =
      List.find
        (fun s -> s.op = "encode" && s.tier = tier && s.k = 20 && s.h = 7 && s.payload = 1024)
        samples
    in
    let headline_scalar = (find "scalar").mbps and headline_word = (find "word").mbps in
    let elapsed = Unix.gettimeofday () -. t0 in
    let domains = Parallel.domain_count (Parallel.default_pool ()) in
    let json =
      json_of_samples samples ~trials ~headline_scalar ~headline_word ~domains ~elapsed
    in
    Harness.write_file !Harness.out json;
    Printf.printf "headline: scalar %.1f MB/s -> word %.1f MB/s (%.2fx); wrote %s\n"
      headline_scalar headline_word
      (headline_word /. headline_scalar)
      !Harness.out
  end;
  Harness.finish ()
