(* The codec registry: every wire-selectable codec is a coefficient-row
   source behind the same {!Fec_block} sender and receiver.

   Three layers of evidence:
   - roundtrips through {!Fec_block} for each kind, plus a qcheck
     differential: on the same loss pattern RLNC must recover exactly
     what RSE recovers (the original data), and a second one that
     interleaves repairs among the data and checks who owns each buffer
     handed to [add];
   - the model hooks against their closed forms, including an empirical
     validation of RLNC's rank-deficiency failure probability against
     Tsimbalo's bound [1 - prod (1 - q^(i-n))];
   - known-answer repair packets, {!Fec_block}'s repair loop over each
     codec and a lossy end-to-end {!Np.run} under the coded-repair
     machine. *)

module Codec = Rmcast.Codec
module Rlnc = Rmcast.Rlnc
module Rse = Rmcast.Rse
module Fec_block = Rmcast.Fec_block
module Np = Rmcast.Np
module Rng = Rmcast.Rng
module Network = Rmcast.Network

let all_kinds = Codec.all
let name_of kind = Rmcast.Profile.codec_to_string kind

let payloads ~count ~size seed =
  let rng = Rng.create ~seed () in
  Array.init count (fun _ -> Bytes.init size (fun _ -> Char.chr (Rng.int rng 256)))

(* Feed the surviving data packets, then repair packets in wire order
   until the decoder completes (or the budget [h] runs dry).  Returns the
   decoded block and how many repair packets were consumed. *)
let seam_decode codec ~h ~drop data =
  let k = Array.length data in
  let enc = Fec_block.Sender.create ~codec ~h data in
  let dec = Fec_block.Receiver.create ~codec ~k ~h in
  Array.iteri
    (fun i p -> if not (List.mem i drop) then ignore (Fec_block.Receiver.add dec ~index:i p))
    data;
  let consumed = ref 0 in
  while (not (Fec_block.Receiver.complete dec)) && !consumed < h do
    ignore
      (Fec_block.Receiver.add dec ~index:(k + !consumed) (Fec_block.Sender.parity enc !consumed));
    incr consumed
  done;
  if Fec_block.Receiver.complete dec then Some (Fec_block.Receiver.decode dec, !consumed)
  else None

let test_roundtrip_all_codecs () =
  let k = 8 and h = 40 in
  let drop = [ 1; 3; 4; 6 ] in
  let data = payloads ~count:k ~size:64 3 in
  List.iter
    (fun kind ->
      let codec = Codec.of_kind kind in
      match seam_decode codec ~h ~drop data with
      | None -> Alcotest.failf "%s failed to decode with budget %d" (name_of kind) h
      | Some (out, consumed) ->
        Alcotest.(check bool) (name_of kind ^ " decodes the block") true (out = data);
        (* The MDS block codecs need exactly one repair per loss; RLNC
           may need a few more, never fewer. *)
        (match kind with
        | `Rse | `Cauchy ->
          Alcotest.(check int) (name_of kind ^ " is MDS") (List.length drop) consumed
        | `Rlnc ->
          Alcotest.(check bool)
            (name_of kind ^ " repair floor")
            true
            (consumed >= List.length drop));
        (* Re-create a decoder to probe the bookkeeping mid-flight. *)
        let module R = Fec_block.Receiver in
        let dec = R.create ~codec ~k ~h in
        ignore (R.add dec ~index:0 data.(0));
        Alcotest.(check bool) "duplicate data rejected" false (R.add dec ~index:0 data.(0));
        Alcotest.(check int) "one useful packet" 1 (R.received dec);
        Alcotest.(check bool) "verbatim arrival tracked" true (R.has_data dec 0);
        Alcotest.(check bool) "others still missing" false (R.has_data dec 1);
        Alcotest.(check int) "missing list" (k - 1) (List.length (R.missing_data dec)))
    all_kinds

(* Differential: identical loss pattern, every codec reconstructs the
   same original block.  Drop count runs all the way to k (pure-repair
   decode), which for RLNC exercises the coded paths exclusively. *)
let qcheck_differential =
  let gen =
    QCheck.Gen.(
      int_range 1 10 >>= fun k ->
      int_range 0 k >>= fun drops ->
      int_range 0 10_000 >>= fun seed -> return (k, drops, seed))
  in
  let print (k, drops, seed) = Printf.sprintf "k=%d drops=%d seed=%d" k drops seed in
  QCheck.Test.make ~count:60 ~name:"all codecs agree under the same loss pattern"
    (QCheck.make ~print gen) (fun (k, drops, seed) ->
      let data = payloads ~count:k ~size:32 (seed + 1) in
      let rng = Rng.create ~seed () in
      let idx = Array.init k Fun.id in
      for i = k - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- t
      done;
      let drop = Array.to_list (Array.sub idx 0 drops) in
      List.for_all
        (fun kind ->
          match seam_decode (Codec.of_kind kind) ~h:200 ~drop data with
          | None -> false
          | Some (out, _) -> out = data)
        all_kinds)

(* Arrival order and payload ownership.  Repair packets arrive before and
   among the surviving data packets — so a data packet can find its column
   already taken by a repair, and back-substitution mixes verbatim and
   coded rows — then further repairs until the decoder completes.  Every
   codec must decode the source, leave every buffer handed to [add]
   byte-identical to what it was, and keep each accepted data packet by
   reference: its decoded slot is that very buffer. *)
let qcheck_arrival_order_and_ownership =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun k ->
      int_range 0 k >>= fun drops ->
      int_range 0 (k + 2) >>= fun early ->
      int_range 0 10_000 >>= fun seed -> return (k, drops, early, seed))
  in
  let print (k, drops, early, seed) =
    Printf.sprintf "k=%d drops=%d early=%d seed=%d" k drops early seed
  in
  let h = 200 in
  QCheck.Test.make ~count:80 ~name:"arrival order and payload ownership (all codecs)"
    (QCheck.make ~print gen) (fun (k, drops, early, seed) ->
      let data = payloads ~count:k ~size:32 (seed + 1) in
      let rng = Rng.create ~seed () in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done
      in
      let idx = Array.init k Fun.id in
      shuffle idx;
      (* The survivors and the first [early] repairs, in a random order. *)
      let arrivals =
        Array.append (Array.sub idx drops (k - drops)) (Array.init early (fun j -> k + j))
      in
      shuffle arrivals;
      List.for_all
        (fun kind ->
          let codec = Codec.of_kind kind in
          let module R = Fec_block.Receiver in
          let enc = Fec_block.Sender.create ~codec ~h data in
          let dec = R.create ~codec ~k ~h in
          let added = ref [] and kept = ref [] in
          let add index =
            let payload =
              if index < k then Bytes.copy data.(index)
              else Bytes.copy (Fec_block.Sender.parity enc (index - k))
            in
            added := (payload, Bytes.copy payload) :: !added;
            if R.add dec ~index payload && index < k then kept := (index, payload) :: !kept
          in
          Array.iter add arrivals;
          let next = ref early in
          while (not (R.complete dec)) && !next < h do
            add (k + !next);
            incr next
          done;
          R.complete dec
          &&
          let out = R.decode dec in
          out = data
          && List.for_all (fun (payload, snapshot) -> Bytes.equal payload snapshot) !added
          && List.for_all (fun (index, payload) -> out.(index) == payload) !kept)
        all_kinds)

(* One decoder for every linear codec: Rse over GF(2^8) and GF(2^16),
   Cauchy and Rlnc all reduce packets through the same incremental
   elimination.  Arrivals are a random subset of the data and the first
   repairs in a random order (parities before data, data for a column a
   repair pivot already took), with duplicates of earlier arrivals mixed
   in; then repairs until the block completes, then one data packet and
   one repair after completion.  Through every arrival [needed] never
   rises and [add] has returned [true] exactly [k - needed] times (the
   rank); late packets are refused; the decode is the data.  A fresh
   decoder fed every distinct packet plus the late repair, more than [k]
   in a random order, decodes the data too. *)
type linear_decoder = {
  add : index:int -> Bytes.t -> bool;
  needed : unit -> int;
  complete : unit -> bool;
  decode : unit -> Bytes.t array;
}

let qcheck_one_linear_decoder =
  let gen =
    QCheck.Gen.(
      int_range 1 24 >>= fun k ->
      int_range 0 k >>= fun drops ->
      int_range 0 k >>= fun early ->
      int_range 0 8 >>= fun dups ->
      int_range 0 10_000 >>= fun seed -> return (k, drops, early, dups, seed))
  in
  let print (k, drops, early, dups, seed) =
    Printf.sprintf "k=%d drops=%d early=%d dups=%d seed=%d" k drops early dups seed
  in
  QCheck.Test.make ~count:60 ~name:"one elimination decoder: arrival orders (rse, cauchy, rlnc)"
    (QCheck.make ~print gen) (fun (k, drops, early, dups, seed) ->
      let h = (2 * k) + 16 in
      let data = payloads ~count:k ~size:32 (seed + 1) in
      let rng = Rng.create ~seed () in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done
      in
      let idx = Array.init k Fun.id in
      shuffle idx;
      let distinct =
        Array.append (Array.sub idx drops (k - drops)) (Array.init early (fun j -> k + j))
      in
      shuffle distinct;
      let arrivals =
        Array.append distinct
          (if distinct = [||] then [||]
           else Array.init dups (fun _ -> distinct.(Rng.int rng (Array.length distinct))))
      in
      shuffle arrivals;
      let seam kind =
        let codec = Codec.of_kind kind in
        let module R = Fec_block.Receiver in
        let enc = Fec_block.Sender.create ~codec ~h data in
        let dec = R.create ~codec ~k ~h in
        ( name_of kind,
          (fun j -> Bytes.copy (Fec_block.Sender.parity enc j)),
          {
            add = R.add dec;
            needed = (fun () -> R.needed dec);
            complete = (fun () -> R.complete dec);
            decode = (fun () -> R.decode dec);
          } )
      in
      let field16 = Rmcast.Gf.create 16 in
      let rse16 = Rse.create ~field:field16 ~k ~h () in
      let gf16 () =
        (* GF(2^16) has no registry codec: drive the encoder loop and the
           elimination decoder directly over Rse's parity rows, as
           big-endian symbols. *)
        let module E = Rmc_rse.Codec_core.Elimination in
        let dec = E.make ~label:"Rse" ~field:field16 ~k ~h ~repair_row:(Rse.parity_row rse16) in
        let parities =
          Array.init h (fun j ->
              Rmc_rse.Codec_core.combine field16 ~row:(Rse.parity_row rse16 j) data)
        in
        ( "rse gf(2^16)",
          (fun j -> Bytes.copy parities.(j)),
          {
            add = E.add dec;
            needed = (fun () -> E.needed dec);
            complete = (fun () -> E.complete dec);
            decode = (fun () -> E.decode dec);
          } )
      in
      let check (name, repair, d) =
        let packet index = if index < k then data.(index) else repair (index - k) in
        let accepted = ref 0 and needed = ref (d.needed ()) in
        let feed index =
          if d.add ~index (packet index) then incr accepted;
          let now = d.needed () in
          if now > !needed then QCheck.Test.fail_reportf "%s: needed rose to %d" name now;
          if !accepted <> k - now then
            QCheck.Test.fail_reportf "%s: %d accepted at rank %d" name !accepted (k - now);
          needed := now
        in
        Array.iter feed arrivals;
        let next = ref early in
        while (not (d.complete ())) && !next < h do
          feed (k + !next);
          incr next
        done;
        if not (d.complete ()) then QCheck.Test.fail_reportf "%s: incomplete" name;
        let late_data = Rng.int rng k and late_repair = min !next (h - 1) in
        if
          d.add ~index:late_data (packet late_data)
          || d.add ~index:(k + late_repair) (repair late_repair)
        then QCheck.Test.fail_reportf "%s: a packet after completion was accepted" name;
        d.decode () = data || QCheck.Test.fail_reportf "%s: decode differs" name
      in
      List.for_all check [ seam `Rse; gf16 (); seam `Cauchy; seam `Rlnc ]
      &&
      (* Every data survivor, the early repairs and enough more for [k],
         plus one: more than [k] distinct packets, in a random order, into
         a fresh decoder. *)
      let received =
        Array.append distinct (Array.init (max 0 (drops - early) + 1) (fun j -> k + early + j))
      in
      shuffle received;
      Array.length received > k
      && List.for_all
           (fun (name, repair, d) ->
             let packet index = if index < k then data.(index) else repair (index - k) in
             Array.iter (fun index -> ignore (d.add ~index (packet index))) received;
             d.decode () = data || QCheck.Test.fail_reportf "%s: shuffled decode differs" name)
           [ seam `Rse; gf16 () ])

(* Tsimbalo's rank-deficiency bound, empirically.  Receive exactly n = k
   coded packets (no systematic ones) and count the trials where GF(256)
   Gaussian elimination falls short of full rank; the model hook claims
   P(fail) = 1 - prod_{i=0}^{k-1} (1 - 256^(i-n)) ~ 0.39%.  Every trial
   uses a disjoint window of wire indices, so this also tests that the
   (k, j)-derived coefficient vectors behave like the uniform ensemble
   the bound assumes.  Deterministic: no seed, so no flakiness. *)
let test_rlnc_rank_deficiency_matches_bound () =
  let k = 8 and trials = 8000 in
  let h = Rlnc.max_repair ~k in
  let payload = Bytes.make 1 '\000' in
  let failures = ref 0 in
  for t = 0 to trials - 1 do
    let dec = Fec_block.Receiver.create ~codec:(Codec.of_kind `Rlnc) ~k ~h in
    for i = 0 to k - 1 do
      ignore (Fec_block.Receiver.add dec ~index:(k + (t * k) + i) payload)
    done;
    if not (Fec_block.Receiver.complete dec) then incr failures
  done;
  let p = Rlnc.decode_failure_probability ~k ~received:k in
  Alcotest.(check bool) "bound is in the expected regime" true (p > 0.003 && p < 0.005);
  let expected = float_of_int trials *. p in
  let sigma = sqrt (float_of_int trials *. p *. (1.0 -. p)) in
  let delta = Float.abs (float_of_int !failures -. expected) in
  Alcotest.(check bool)
    (Printf.sprintf "failures %d within 5 sigma of %.1f (sigma %.1f)" !failures expected sigma)
    true
    (delta <= 5.0 *. sigma)

let test_registry_and_caps () =
  Alcotest.(check int) "three wire-selectable codecs" 3 (List.length Codec.all);
  List.iter
    (fun kind ->
      Alcotest.(check bool) "label nonempty" true (String.length (Codec.label kind) > 0))
    Codec.all;
  let rateless = Rmcast.Profile.codec_is_rateless in
  Alcotest.(check bool) "rse is a block codec" false (rateless `Rse);
  Alcotest.(check bool) "cauchy is a block codec" false (rateless `Cauchy);
  Alcotest.(check bool) "rlnc is rateless" true (rateless `Rlnc);
  (* Block codecs live inside 255 codeword positions; the rateless one
     inside the 16-bit wire index space. *)
  Alcotest.(check int) "rse budget" (255 - 100) (Codec.max_repair (Codec.of_kind `Rse) ~k:100);
  Alcotest.(check int) "rlnc budget" (0xFFFF - 100) (Codec.max_repair (Codec.of_kind `Rlnc) ~k:100)

let test_model_hooks () =
  (* MDS: every distinct repair packet is innovative and any k packets
     decode — the coded-repair tier must draw no randomness for these. *)
  List.iter
    (fun kind ->
      let c = Codec.of_kind kind in
      Alcotest.(check (float 0.0))
        (name_of kind ^ " repair always innovative")
        1.0
        (Codec.innovation_probability c ~k:8 ~rank:5);
      Alcotest.(check (float 0.0))
        (name_of kind ^ " decode certain at k")
        0.0
        (Codec.decode_failure_probability c ~k:8 ~received:8))
    [ `Rse; `Cauchy ];
  let rlnc = Codec.of_kind `Rlnc in
  Alcotest.(check (float 1e-12)) "rlnc innovation one short of full rank"
    (1.0 -. (1.0 /. 256.0))
    (Codec.innovation_probability rlnc ~k:8 ~rank:7);
  Alcotest.(check (float 0.0)) "nothing to learn at full rank" 0.0
    (Codec.innovation_probability rlnc ~k:8 ~rank:8);
  Alcotest.(check (float 0.0)) "decode impossible below k" 1.0
    (Codec.decode_failure_probability rlnc ~k:8 ~received:7);
  let fail_at n = Codec.decode_failure_probability rlnc ~k:8 ~received:n in
  Alcotest.(check bool) "extra receptions shrink the failure probability" true
    (fail_at 9 < fail_at 8 && fail_at 10 < fail_at 9)

(* Both sides re-derive the combination from the wire index alone: the
   derivations must be pure functions of (k, j). *)
let test_derivations_deterministic () =
  let k = 16 in
  let distinct = Hashtbl.create 32 in
  for j = 0 to 31 do
    let coefficients ~k ~j =
      let row = Rlnc.coefficients ~k ~j in
      Array.init (Bytes.length row) (Bytes.get_uint8 row)
    in
    let a = coefficients ~k ~j and b = coefficients ~k ~j in
    Alcotest.(check bool) "rlnc coefficients deterministic" true (a = b);
    Alcotest.(check int) "one coefficient per data packet" k (Array.length a);
    Alcotest.(check bool) "never the zero combination" true (Array.exists (fun c -> c <> 0) a);
    Array.iter (fun c -> Alcotest.(check bool) "gf(256) range" true (c >= 0 && c < 256)) a;
    Hashtbl.replace distinct (Array.to_list a) ()
  done;
  Alcotest.(check bool) "coefficient vectors vary across j" true (Hashtbl.length distinct > 16)

(* Known answers.  A repair packet is a pure function of the block and
   its index, and both ends derive its coefficients from (k, j) alone, so
   these bytes are a wire contract: a change to a generator, to RLNC's
   (k, j) stream or to the encoder loop shows up here as a literal. *)
let test_known_answers () =
  let data =
    Array.init 4 (fun i -> Bytes.init 16 (fun b -> Char.chr (((((i * 16) + b) * 167) + 13) land 0xff)))
  in
  List.iter
    (fun (kind, j0, j1) ->
      let sender = Fec_block.Sender.create ~codec:(Codec.of_kind kind) ~h:2 data in
      let parity j = Rmc_proto.Hex.encode (Fec_block.Sender.parity sender j) in
      Alcotest.(check string) (name_of kind ^ " repair 0") j0 (parity 0);
      Alcotest.(check string) (name_of kind ^ " repair 1") j1 (parity 1))
    [
      (`Rse, "94e1e89b8ee3a2fcdb18f16f15110865", "48137d479f7650a77e0daa9d00cd19f0");
      (`Cauchy, "e1cd2b1c3356453af92487dd998c3e5b", "993adc646ea1b2cdd8ed702a50f463ac");
      (`Rlnc, "7cf9c59613f23880713b8ac131738c6d", "2e3959ff4976ac18b973b6efddd77e41");
    ];
  Alcotest.(check string) "rlnc coefficient row (k = 8, j = 0)" "bf41f433148af02b"
    (Rmc_proto.Hex.encode (Rlnc.coefficients ~k:8 ~j:0))

(* The seam in situ: Fec_block's sender/receiver bookkeeping over every
   codec — survivors in, next_parities batches sized by [needed] until
   the block completes, exactly NP's repair loop. *)
let test_fec_block_over_each_codec () =
  let k = 6 and h = 50 in
  let keep = [ 0; 2; 5 ] in
  let data = payloads ~count:k ~size:48 17 in
  List.iter
    (fun kind ->
      let codec = Codec.of_kind kind in
      let sender = Fec_block.Sender.create ~codec ~h data in
      Alcotest.(check int) "sender k" k (Fec_block.Sender.k sender);
      let recv = Fec_block.Receiver.create ~codec ~k ~h in
      List.iter (fun i -> ignore (Fec_block.Receiver.add recv ~index:i data.(i))) keep;
      Alcotest.(check bool) "not yet complete" false (Fec_block.Receiver.complete recv);
      while not (Fec_block.Receiver.complete recv) do
        let batch = max 1 (Fec_block.Receiver.needed recv) in
        List.iter
          (fun (j, payload) -> ignore (Fec_block.Receiver.add recv ~index:(k + j) payload))
          (Fec_block.Sender.next_parities sender batch)
      done;
      Alcotest.(check bool)
        (name_of kind ^ " block decodes through Fec_block")
        true
        (Fec_block.Receiver.decode recv = data);
      Alcotest.(check (list int))
        "missing_data lists the non-verbatim indices" [ 1; 3; 4 ]
        (Fec_block.Receiver.missing_data recv))
    all_kinds

(* End to end: a lossy multi-TG NP transfer repaired with coded packets
   must still deliver intact to every receiver. *)
let test_np_lossy_coded_delivery () =
  List.iter
    (fun codec ->
      let config = { Np.default_config with Np.k = 8; h = 64; payload_size = 64; codec } in
      let network = Network.independent (Rng.create ~seed:5 ()) ~receivers:3 ~p:0.25 in
      let rng = Rng.create ~seed:6 () in
      let data = payloads ~count:20 ~size:64 8 in
      let report = Np.run ~config ~network ~rng ~data () in
      Alcotest.(check bool)
        (name_of codec ^ " delivered intact")
        true report.Np.delivered_intact;
      Alcotest.(check (list (pair int int))) "no receiver gave up" [] report.Np.ejected;
      Alcotest.(check bool) "repair rounds actually coded" true (report.Np.parity_tx > 0))
    [ `Rlnc ]

let suite =
  [
    Alcotest.test_case "roundtrip through the seam (all codecs)" `Quick
      test_roundtrip_all_codecs;
    QCheck_alcotest.to_alcotest qcheck_differential;
    QCheck_alcotest.to_alcotest qcheck_arrival_order_and_ownership;
    QCheck_alcotest.to_alcotest qcheck_one_linear_decoder;
    Alcotest.test_case "rlnc rank-deficiency matches Tsimbalo's bound" `Quick
      test_rlnc_rank_deficiency_matches_bound;
    Alcotest.test_case "registry, names and capability flags" `Quick test_registry_and_caps;
    Alcotest.test_case "loss/rank model hooks" `Quick test_model_hooks;
    Alcotest.test_case "wire-index derivations are deterministic" `Quick
      test_derivations_deterministic;
    Alcotest.test_case "known-answer repair packets" `Quick test_known_answers;
    Alcotest.test_case "Fec_block over each codec" `Quick test_fec_block_over_each_codec;
    Alcotest.test_case "lossy NP transfer with coded repair" `Quick
      test_np_lossy_coded_delivery;
  ]
