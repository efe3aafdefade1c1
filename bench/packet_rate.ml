(* Packet-datapath rate + allocation: the per-datagram cost of moving one
   NP message through encode -> wire -> decode, legacy vs pooled —

     legacy   what the seed driver paid: one [Header.encode] per
              destination of the unicast fan-out (each a fresh zeroed
              datagram), and on the receiving side a fresh 64 KiB drain
              scratch plus a whole-datagram [Bytes.sub] before [decode];
     pooled   the current datapath: one [Header.encode_into] into a
              pooled buffer shared by the whole fan-out, a persistent
              recv scratch, and [Header.decode_slice] straight out of it.

   Both paths move the same datagrams (a blit stands in for the kernel's
   socket copy), so the difference is pure datapath overhead.  Two
   message kinds bracket the range: DATA (payload-bearing, one
   unavoidable payload copy on decode) and NAK (control, no payload).

   Rates are datagrams/sec (best-of-trials, interleaved; the JSON also
   records the median and q1-q3 over the trials).  Allocation is
   [Gc.allocated_bytes] per datagram — it counts major-heap allocations
   too, which matters because the legacy 64 KiB scratch never fits the
   minor heap.  `--smoke` (wired to @bench-smoke, hence @ci) gates on
   the legacy/pooled allocation ratio and gives rates a lenient sanity
   check; the pooled byte budgets are a test (test/test_datapath.ml).
   The full run writes BENCH_DATAPATH.json (override: --out). *)

open Rmcast

let () = Harness.parse [ Smoke; Out "BENCH_DATAPATH.json" ]

(* --- the two datapaths -------------------------------------------------- *)

let fanout = 4 (* group members each datagram is unicast to *)
let data_payload = 1024
let max_datagram = Udp_np.max_datagram

let data_msg =
  let rng = Rng.create ~seed:7 () in
  Header.Data
    {
      tg_id = 3;
      k = 8;
      index = 2;
      payload = Bytes.init data_payload (fun _ -> Char.chr (Rng.int rng 256));
    }

let nak_msg = Header.Nak { tg_id = 3; need = 2; round = 1 }

(* Keep decode results observably live so neither path can be optimized
   into not parsing. *)
let sink = ref 0
let consume message = sink := !sink + Header.tg_id message

(* The seed sender re-encoded payload-bearing messages once per
   destination; control messages were encoded once.  [encode_per_dest]
   keeps the model honest per kind. *)
let legacy ~encode_per_dest message () =
  let shared = if encode_per_dest then Bytes.empty else Header.encode message in
  for _ = 1 to fanout do
    let dgram = if encode_per_dest then Header.encode message else shared in
    let len = Bytes.length dgram in
    let scratch = Bytes.create max_datagram in
    Bytes.blit dgram 0 scratch 0 len;
    let owned = Bytes.sub scratch 0 len in
    match Header.decode owned with
    | Ok m -> consume m
    | Error reason -> failwith ("legacy decode: " ^ reason)
  done

let pool = Buffer_pool.create ~capacity:4 ~buf_size:max_datagram ()
let rx_scratch = Bytes.create max_datagram

let pooled message () =
  Buffer_pool.with_buf pool (fun buf ->
      let len = Header.encode_into buf ~off:0 message in
      for _ = 1 to fanout do
        Bytes.blit buf 0 rx_scratch 0 len;
        match Header.decode_slice rx_scratch ~off:0 ~len with
        | Ok m -> consume m
        | Error reason -> failwith ("pooled decode: " ^ reason)
      done)

let paths kind =
  let message = match kind with "data" -> data_msg | _ -> nak_msg in
  [
    ("legacy", legacy ~encode_per_dest:(kind = "data") message);
    ("pooled", pooled message);
  ]

(* --- measurement -------------------------------------------------------- *)

let datagrams_per_sec ~quota f = float_of_int fanout /. Harness.mean_seconds ~quota f

let alloc_bytes_per_datagram f =
  f () (* warm up: pool population *);
  let reps = 2000 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.allocated_bytes () -. before) /. float_of_int (reps * fanout)

(* [rate] is the best trial, which the gates read; [spread] is the median
   and q1-q3 over all trials, recorded next to it in the JSON. *)
type sample = {
  path : string;
  kind : string;
  rate : float;
  spread : Harness.spread;
  alloc : float;
}

let measure_kind ~quota ~trials kind =
  let rates = Hashtbl.create 4 in
  for _ = 1 to trials do
    List.iter
      (fun (path, f) ->
        let rate = datagrams_per_sec ~quota f in
        Hashtbl.replace rates path
          (rate :: Option.value ~default:[] (Hashtbl.find_opt rates path)))
      (paths kind)
  done;
  List.map
    (fun (path, f) ->
      let trial_rates = Hashtbl.find rates path in
      {
        path;
        kind;
        rate = List.fold_left Float.max neg_infinity trial_rates;
        spread = Harness.spread trial_rates;
        alloc = alloc_bytes_per_datagram f;
      })
    (paths kind)

let find samples path kind = List.find (fun s -> s.path = path && s.kind = kind) samples

let ratios samples kind =
  let legacy = find samples "legacy" kind and pooled = find samples "pooled" kind in
  (pooled.rate /. legacy.rate, legacy.alloc /. Float.max 1e-9 pooled.alloc)

let print_samples samples =
  List.iter
    (fun s ->
      Printf.printf "%-6s %-4s fanout=%d %10.0f datagrams/s %9.1f alloc B/datagram\n%!"
        s.path s.kind fanout s.rate s.alloc)
    samples

(* --- the datapath gate ---------------------------------------------------- *)

(* The pooled path must allocate at least [min_alloc_ratio] times less than
   the legacy path and must not collapse on rate.  Its absolute byte
   budgets are a test (test/test_datapath.ml). *)
let min_alloc_ratio = 5.0

let gate samples =
  List.iter
    (fun kind ->
      let rate_ratio, alloc_ratio = ratios samples kind in
      Harness.check
        (Printf.sprintf "%s alloc ratio" kind)
        (alloc_ratio >= min_alloc_ratio)
        (Printf.sprintf "legacy/pooled = %.1fx < %.0fx" alloc_ratio min_alloc_ratio);
      (* Wall-clock on shared CI is noisy; only catch a collapse here.
         The checked-in full run documents the real (>= 2x) margin. *)
      Harness.check
        (Printf.sprintf "%s rate sanity" kind)
        (rate_ratio >= 0.8)
        (Printf.sprintf "pooled/legacy = %.2fx < 0.8x" rate_ratio))
    [ "data"; "nak" ]

(* --- real sockets: per-datagram syscalls vs the batched transport -------- *)

(* The model above prices the datapath; this section prices the kernel
   boundary.  Both paths move the same logical messages through real UDP
   sockets on loopback at fan-out [socket_fanout]:

     syscall  the seed transport: one [sendto] per destination per
              message, receivers drained one [recvfrom] per datagram;
     batched  the line-rate transport: messages coalesced back to back
              into frames ([socket_coalesce] per frame, delimited by
              {!Header.frame_length}), frames flushed through one
              [sendmmsg] per chunk and drained through [recvmmsg] rings —
              plus, where the kernel routes it, a variant where each
              frame is sent once to a real multicast group and the kernel
              performs the fan-out.

   Rates are delivered messages/sec (every copy decoded and verified —
   the run aborts on any loss, so the numbers never flatter a path that
   drops work).  [syscalls_per_datagram] counts every kernel entry,
   drains included, divided by delivered copies: the batched path stays
   under 0.5 (a test holds it there) where the per-datagram path pays ~2. *)

let socket_fanout = 8
let socket_payload = 256
let socket_coalesce = 32 (* messages per coalesced frame *)
let socket_frames_per_flush = 4

type socket_sample = {
  spath : string;
  skind : string;  (* "data" | "nak" — same brackets as the model section *)
  smessages : int;
  srate : float;  (* delivered messages/sec *)
  sspd : float;  (* syscalls per delivered message *)
}

(* DATA prices a payload-bearing stream (the shared encode/CRC/copy cost
   is real work both paths pay, so it dilutes the syscall margin); NAK
   prices the control storms the paper is about — feedback implosion is
   thousands of tiny datagrams, where the kernel boundary IS the cost and
   batching shows its full margin. *)
let socket_msg kind i =
  match kind with
  | "data" ->
    Header.Data
      {
        tg_id = i land 0xFFFF;
        k = 8;
        index = i land 7;
        payload = Bytes.make socket_payload (Char.chr (i land 0xFF));
      }
  | _ -> Header.Nak { tg_id = i land 0xFFFF; need = 1 + (i land 7); round = 1 }

let mk_bench_socket () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock socket;
  (try Unix.setsockopt_int socket Unix.SO_RCVBUF (1 lsl 21) with Unix.Unix_error _ -> ());
  socket

let run_syscall_path ~kind ~messages =
  let tx = mk_bench_socket () in
  let rxs = Array.init socket_fanout (fun _ -> mk_bench_socket ()) in
  let dests = Array.map Unix.getsockname rxs in
  let buf = Bytes.create max_datagram and scratch = Bytes.create max_datagram in
  let delivered = ref 0 and syscalls = ref 0 in
  let drain_all () =
    Array.iter
      (fun rx ->
        let continue = ref true in
        while !continue do
          incr syscalls;
          match Unix.recvfrom rx scratch 0 max_datagram [] with
          | len, _ -> (
            match Header.decode_slice scratch ~off:0 ~len with
            | Ok m ->
              consume m;
              incr delivered
            | Error reason -> failwith ("syscall-path decode: " ^ reason))
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            continue := false
        done)
      rxs
  in
  let t0 = Unix.gettimeofday () in
  for i = 0 to messages - 1 do
    let len = Header.encode_into buf ~off:0 (socket_msg kind i) in
    Array.iter
      (fun dest ->
        incr syscalls;
        ignore (Unix.sendto tx buf 0 len [] dest))
      dests;
    if i land 15 = 15 then drain_all ()
  done;
  drain_all ();
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close tx;
  Array.iter Unix.close rxs;
  let expected = messages * socket_fanout in
  if !delivered <> expected then
    failwith (Printf.sprintf "syscall path lost datagrams: %d/%d" !delivered expected);
  {
    spath = "syscall";
    skind = kind;
    smessages = messages;
    srate = float_of_int !delivered /. elapsed;
    sspd = float_of_int !syscalls /. float_of_int !delivered;
  }

let walk_bench_frame buffer ~len handle =
  let rec go off =
    if off < len then
      match Header.frame_length buffer ~off ~len:(len - off) with
      | Error reason -> failwith ("batched frame walk: " ^ reason)
      | Ok frame_len ->
        (match Header.decode_slice buffer ~off ~len:frame_len with
        | Ok m -> handle m
        | Error reason -> failwith ("batched decode: " ^ reason));
        go (off + frame_len)
  in
  go 0

let run_batched_path ~kind ~messages ~multicast =
  let group = Udp_multicast.group_of_seed 7711 in
  let tx, rxs, dests =
    if multicast then
      ( Udp_multicast.sender_socket (),
        Array.init socket_fanout (fun _ ->
            let rx = Udp_multicast.receiver_socket group in
            (try Unix.setsockopt_int rx Unix.SO_RCVBUF (1 lsl 21)
             with Unix.Unix_error _ -> ());
            rx),
        [| Udp_multicast.group_addr group |] )
    else
      let rxs = Array.init socket_fanout (fun _ -> mk_bench_socket ()) in
      (mk_bench_socket (), rxs, Array.map Unix.getsockname rxs)
  in
  let rings =
    Array.map (fun _ -> Udp_batch.recv_create ~slots:8 ~buf_size:max_datagram ()) rxs
  in
  let batch = Udp_batch.send_create () in
  let frame_bufs = Array.init socket_frames_per_flush (fun _ -> Bytes.create max_datagram) in
  let delivered = ref 0 and syscalls = ref 0 in
  let drain_all () =
    Array.iteri
      (fun r rx ->
        let ring = rings.(r) in
        let continue = ref true in
        while !continue do
          incr syscalls;
          let n = Udp_batch.recv_batch ring rx in
          for i = 0 to n - 1 do
            walk_bench_frame (Udp_batch.slot ring i) ~len:(Udp_batch.slot_len ring i)
              (fun m ->
                consume m;
                incr delivered)
          done;
          if n < Udp_batch.slots ring then continue := false
        done)
      rxs
  in
  let expected = messages * socket_fanout in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < messages do
    let frames = ref 0 in
    while !frames < socket_frames_per_flush && !i < messages do
      let buf = frame_bufs.(!frames) in
      let len = ref 0 in
      let in_frame = ref 0 in
      while !in_frame < socket_coalesce && !i < messages do
        len := !len + Header.encode_into buf ~off:!len (socket_msg kind !i);
        incr in_frame;
        incr i
      done;
      Array.iter (fun dest -> Udp_batch.add batch buf ~len:!len dest) dests;
      incr frames
    done;
    let { Udp_batch.sent = _; errors; syscalls = flush_syscalls } =
      Udp_batch.flush batch tx
    in
    if errors > 0 then failwith "batched path dropped sends";
    syscalls := !syscalls + flush_syscalls;
    drain_all ()
  done;
  (* Multicast delivery through the kernel can lag the last flush by a
     scheduling quantum; drain until every copy arrives. *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  while !delivered < expected && Unix.gettimeofday () < deadline do
    ignore (Unix.select (Array.to_list rxs) [] [] 0.01);
    drain_all ()
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close tx;
  Array.iter Unix.close rxs;
  if !delivered <> expected then
    failwith (Printf.sprintf "batched path lost datagrams: %d/%d" !delivered expected);
  {
    spath = (if multicast then "batched_multicast" else "batched");
    skind = kind;
    smessages = messages;
    srate = float_of_int !delivered /. elapsed;
    sspd = float_of_int !syscalls /. float_of_int !delivered;
  }

let measure_sockets ~messages =
  List.concat_map
    (fun kind ->
      let samples =
        [
          run_syscall_path ~kind ~messages;
          run_batched_path ~kind ~messages ~multicast:false;
        ]
      in
      if Udp_multicast.is_available () then
        samples @ [ run_batched_path ~kind ~messages ~multicast:true ]
      else samples)
    [ "data"; "nak" ]

let socket_rate_ratio samples kind =
  let rate path =
    (List.find (fun s -> s.spath = path && s.skind = kind) samples).srate
  in
  rate "batched" /. rate "syscall"

let print_socket_samples samples =
  List.iter
    (fun s ->
      Printf.printf
        "%-18s %-4s fanout=%d %10.0f delivered msgs/s %6.3f syscalls/datagram\n%!"
        s.spath s.skind socket_fanout s.srate s.sspd)
    samples

(* The batched path must not collapse on rate.  Rate floors are lenient
   CI-noise guards; the checked-in full run documents the real margin
   (>= 5x on the NAK bracket).  Its syscall ceiling is a test
   (test/test_datapath.ml). *)
let socket_gate samples =
  List.iter
    (fun kind ->
      let batched = List.find (fun s -> s.spath = "batched" && s.skind = kind) samples in
      Harness.check
        (Printf.sprintf "batched %s delivered-rate floor" kind)
        (batched.srate >= 100_000.0)
        (Printf.sprintf "%.0f msgs/s < 100k" batched.srate))
    [ "data"; "nak" ];
  let ratio = socket_rate_ratio samples "nak" in
  Harness.check "batched vs syscall nak rate sanity" (ratio >= 2.0)
    (Printf.sprintf "%.2fx < 2.0x" ratio)

(* --- JSON --------------------------------------------------------------- *)

let json_of_samples samples ~socket_samples ~trials ~elapsed =
  let buffer = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"unit\": \"datagrams/sec and Gc.allocated_bytes per datagram moved\",\n";
  p "    \"model\": \"encode -> wire blit -> decode, unicast fan-out of %d\",\n" fanout;
  p "    \"data_payload\": %d,\n" data_payload;
  List.iter (fun (key, value) -> p "    %S: %s,\n" key value) (Harness.context ());
  p "    \"trials\": %d,\n" trials;
  p "    \"elapsed_s\": %.1f\n" elapsed;
  p "  },\n";
  p "  \"results\": [\n";
  List.iteri
    (fun i s ->
      p
        "    {\"path\": %S, \"kind\": %S, \"fanout\": %d, \"datagrams_per_sec\": %.0f, \
         \"datagrams_per_sec_median\": %.0f, \"datagrams_per_sec_q1\": %.0f, \
         \"datagrams_per_sec_q3\": %.0f, \"alloc_bytes_per_datagram\": %.1f}%s\n"
        s.path s.kind fanout s.rate s.spread.median s.spread.q1 s.spread.q3 s.alloc
        (if i = List.length samples - 1 then "" else ","))
    samples;
  p "  ],\n";
  p "  \"summary\": {\n";
  List.iteri
    (fun i kind ->
      let rate_ratio, alloc_ratio = ratios samples kind in
      p "    %S: {\"rate_ratio\": %.2f, \"alloc_ratio\": %.1f}%s\n" kind rate_ratio
        alloc_ratio
        (if i = 1 then "" else ","))
    [ "data"; "nak" ];
  List.iter
    (fun kind ->
      p
        "    ,\"socket_%s\": {\"rate_ratio\": %.2f, \
         \"batched_syscalls_per_datagram\": %.4f}\n"
        kind
        (socket_rate_ratio socket_samples kind)
        (List.find (fun s -> s.spath = "batched" && s.skind = kind) socket_samples).sspd)
    [ "data"; "nak" ];
  p "  },\n";
  p "  \"socket\": {\n";
  p "    \"fanout\": %d,\n" socket_fanout;
  p "    \"payload\": %d,\n" socket_payload;
  p "    \"coalesce\": %d,\n" socket_coalesce;
  p "    \"native_mmsg\": %b,\n" Udp_batch.native;
  p "    \"results\": [\n";
  List.iteri
    (fun i s ->
      p
        "      {\"path\": %S, \"kind\": %S, \"messages\": %d, \"delivered_per_sec\": \
         %.0f, \"syscalls_per_datagram\": %.4f}%s\n"
        s.spath s.skind s.smessages s.srate s.sspd
        (if i = List.length socket_samples - 1 then "" else ","))
    socket_samples;
  p "    ]\n";
  p "  }\n";
  p "}\n";
  Buffer.contents buffer

let () =
  if !Harness.smoke then begin
    let samples = List.concat_map (measure_kind ~quota:0.02 ~trials:2) [ "data"; "nak" ] in
    print_samples samples;
    let socket_samples = measure_sockets ~messages:2_000 in
    print_socket_samples socket_samples;
    gate samples;
    socket_gate socket_samples
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let trials = 5 in
    let samples = List.concat_map (measure_kind ~quota:0.2 ~trials) [ "data"; "nak" ] in
    print_samples samples;
    let socket_samples = measure_sockets ~messages:40_000 in
    print_socket_samples socket_samples;
    let elapsed = Unix.gettimeofday () -. t0 in
    let json = json_of_samples samples ~socket_samples ~trials ~elapsed in
    Harness.write_file !Harness.out json;
    let rate_ratio, alloc_ratio = ratios samples "data" in
    Printf.printf
      "headline: data %.2fx datagrams/s, %.1fx less allocation; sockets %.1fx (data) \
       / %.1fx (nak) delivered/s at fanout %d; wrote %s\n"
      rate_ratio alloc_ratio
      (socket_rate_ratio socket_samples "data")
      (socket_rate_ratio socket_samples "nak")
      socket_fanout !Harness.out
  end;
  Harness.finish ()
