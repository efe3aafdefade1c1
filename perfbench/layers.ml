(* The traced run: split one transfer's time across the layers.

   The library's drivers carry no spans, so the split is measured from
   the benchmark's side, by timing calls into each layer's public
   functions on the work the run actually did:

   1. the transfer runs once untraced (wall, CPU, GC) and once with a
      [Recorder] attached (the difference is the tracing overhead);
   2. the capture is replayed through fresh [Np_machine] senders and
      receivers, one span per [handle] call;
   3. every message the machines sent is encoded and decoded once with
      [Header], one span per call;
   4. the codec re-does the sender's encodes and every (receiver, TG)
      decode the capture shows, one span per call;
   5. the sim tiers re-run [Network.transmit], the engine and the
      aggregate thinning at the workload's parameters and event counts.

   Machine self time is its span time minus the codec time of the same
   calls (the codec runs inside [handle], so its spans come from step 4
   rather than nesting).  What untraced CPU no layer span covers is the
   driver's own time, reported as a remainder. *)

open Rmcast

let us_of_s s = s *. 1e6
let per a b = if b = 0 then 0.0 else a /. float_of_int b

type event_class =
  | Tick
  | Feedback
  | Sender_other
  | Payload
  | Poll
  | Nak_overheard
  | Timer
  | Receiver_other

let classify ~sender (event : Np_machine.event) =
  match (sender, event) with
  | true, Np_machine.Tick -> Tick
  | true, (Np_machine.Feedback _ | Np_machine.Packet_received (Header.Nak _)) -> Feedback
  | true, _ -> Sender_other
  | false, Np_machine.Packet_received (Header.Data _ | Header.Parity _) -> Payload
  | false, Np_machine.Packet_received (Header.Poll _) -> Poll
  | false, Np_machine.Packet_received (Header.Nak _) -> Nak_overheard
  | false, Np_machine.Timer_fired _ -> Timer
  | false, _ -> Receiver_other

let class_name = function
  | Tick -> "machine.sender.tick"
  | Feedback -> "machine.sender.feedback"
  | Sender_other -> "machine.sender.other"
  | Payload -> "machine.receiver.payload"
  | Poll -> "machine.receiver.poll"
  | Nak_overheard -> "machine.receiver.nak"
  | Timer -> "machine.receiver.timer"
  | Receiver_other -> "machine.receiver.other"

(* Parse the capture's event lines into (actor, event); actor -1 is the
   sender, i >= 0 receiver i.  The aggregate tier's ["aggregate"] actor
   summarises the count-vector remainder and has no machine. *)
let parse_capture recorder =
  List.filter_map
    (fun (e : Recorder.entry) ->
      match e.kind with
      | Recorder.Effect -> None
      | Recorder.Event ->
        let actor =
          if e.actor = "s0" then Some (-1)
          else if String.length e.actor > 1 && e.actor.[0] = 'r' then
            int_of_string_opt (String.sub e.actor 1 (String.length e.actor - 1))
          else None
        in
        Option.map
          (fun actor ->
            match Np_machine.event_of_string e.body with
            | Ok event -> (actor, event)
            | Error reason -> failwith ("unparseable capture event: " ^ reason))
          actor)
    (Recorder.entries recorder)

type replay = {
  sender : Np_machine.Sender.t;
  receivers : Np_machine.Receiver.t array;
  sent : Header.message list;  (** every message a machine sent, in order *)
  codec_s : (string, float) Hashtbl.t;  (** codec time of the calls of each machine span name *)
  encoded : int;  (** repair packets encoded *)
  adds : int;  (** packets offered to decoders until complete *)
  innovative : int;  (** of which advanced the decoder *)
  decoded_bytes : int;
  decode_minor_words : float;
  reconstructed : int;
  naks_sent : int;
  sender_events : int;
  receiver_events : int;
}

(* Steps 2 and 4: feed the captured events to fresh machines, one span
   per call; right after a call that encoded or decoded inside the
   machine, redo that codec work standalone in its own span (same cache
   and heap state), and book it against the machine span's name. *)
let replay_machines spans ~parent (prepared : Workload.prepared) ~receivers events =
  let config = prepared.machine in
  let codec = Codec.of_kind config.codec in
  let sender = Np_machine.Sender.create config ~data:prepared.data in
  let expected =
    let total = Array.length prepared.data in
    List.init (Np_machine.Sender.tg_count sender) (fun tg ->
        (tg, min config.k (total - (tg * config.k))))
  in
  let rxs =
    Array.init receivers (fun id ->
        Np_machine.Receiver.create ~expected config ~rand:(prepared.damping id))
  in
  let sent = ref [] and receptions = Hashtbl.create 1024 and blocks = Hashtbl.create 16 in
  let codec_s = Hashtbl.create 8 in
  let book name s =
    Hashtbl.replace codec_s name (s +. Option.value ~default:0.0 (Hashtbl.find_opt codec_s name))
  in
  let timed name f =
    let t0 = Span.now_ns () in
    let result = Span.time spans ~parent name f in
    (result, Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9)
  in
  let encoded = ref 0 and adds = ref 0 and innovative = ref 0 and decoded_bytes = ref 0 in
  let decode_minor = ref 0.0 in
  let reconstructed = ref 0 and naks_sent = ref 0 in
  let sender_events = ref 0 and receiver_events = ref 0 in
  let encode name ~tg j =
    let block, s0 =
      match Hashtbl.find_opt blocks tg with
      | Some block -> (block, 0.0)
      | None ->
        let data = Np_machine.Sender.block_data sender ~tg in
        let block, s =
          timed "codec.encode" (fun () -> Fec_block.Sender.create ~codec ~h:config.h data)
        in
        Hashtbl.replace blocks tg block;
        (block, s)
    in
    let _, s = timed "codec.encode" (fun () -> Fec_block.Sender.parity block j) in
    incr encoded;
    book name (s0 +. s)
  in
  let decode name ~rx ~tg =
    let offered = List.rev (Option.value ~default:[] (Hashtbl.find_opt receptions (rx, tg))) in
    Hashtbl.remove receptions (rx, tg);
    let k = Array.length (Np_machine.Sender.block_data sender ~tg) in
    let minor0 = Gc.minor_words () in
    let out, s =
      timed "codec.decode" (fun () ->
          let block = Fec_block.Receiver.create ~codec ~k ~h:config.h in
          List.iter
            (fun (index, payload) ->
              if not (Fec_block.Receiver.complete block) then begin
                incr adds;
                if Fec_block.Receiver.add block ~index payload then incr innovative
              end)
            offered;
          Fec_block.Receiver.decode block)
    in
    decode_minor := !decode_minor +. (Gc.minor_words () -. minor0);
    decoded_bytes := !decoded_bytes + Array.fold_left (fun a b -> a + Bytes.length b) 0 out;
    book name s
  in
  List.iter
    (fun (actor, event) ->
      let is_sender = actor < 0 in
      let name = class_name (classify ~sender:is_sender event) in
      (match event with
      | Np_machine.Packet_received (Header.Data { tg_id; index; payload; _ }) when not is_sender ->
        let key = (actor, tg_id) in
        Hashtbl.replace receptions key
          ((index, payload) :: Option.value ~default:[] (Hashtbl.find_opt receptions key))
      | Np_machine.Packet_received (Header.Parity { tg_id; k; index; payload; _ })
        when not is_sender ->
        let key = (actor, tg_id) in
        Hashtbl.replace receptions key
          ((k + index, payload) :: Option.value ~default:[] (Hashtbl.find_opt receptions key))
      | _ -> ());
      let effects =
        Span.time spans ~parent name (fun () ->
            if is_sender then Np_machine.Sender.handle sender event
            else Np_machine.Receiver.handle rxs.(actor) event)
      in
      if is_sender then incr sender_events else incr receiver_events;
      List.iter
        (function
          | Np_machine.Send message ->
            sent := message :: !sent;
            (match message with
            | Header.Parity { tg_id; index; _ } -> encode name ~tg:tg_id index
            | Header.Nak _ -> incr naks_sent
            | Header.Data _ | Header.Poll _ | Header.Exhausted _ -> ())
          | Np_machine.Deliver { tg; reconstructed = r; _ } ->
            reconstructed := !reconstructed + r;
            decode name ~rx:actor ~tg
          | _ -> ())
        effects)
    events;
  {
    sender;
    receivers = rxs;
    sent = List.rev !sent;
    codec_s;
    encoded = !encoded;
    adds = !adds;
    innovative = !innovative;
    decoded_bytes = !decoded_bytes;
    decode_minor_words = !decode_minor;
    reconstructed = !reconstructed;
    naks_sent = !naks_sent;
    sender_events = !sender_events;
    receiver_events = !receiver_events;
  }

(* Step 3: one encode and one decode span per sent message. *)
let replay_wire spans ~parent sent =
  let buf = Bytes.create Udp_np.max_datagram in
  let minor0 = Gc.minor_words () in
  let failures = ref 0 in
  List.iter
    (fun message ->
      let len =
        Span.time spans ~parent "wire.encode" (fun () -> Header.encode_into buf ~off:0 message)
      in
      match
        Span.time spans ~parent "wire.decode" (fun () -> Header.decode_slice buf ~off:0 ~len)
      with
      | Ok _ -> ()
      | Error _ -> incr failures)
    sent;
  (* The words the loop itself allocates are the encode/decode results;
     encode_into allocates nothing, so they are the decodes'. *)
  (Gc.minor_words () -. minor0, !failures)

(* Step 5a: the loss process, one span per payload transmission. *)
let replay_network spans ~parent network ~transmissions ~spacing =
  let receivers = Network.receivers network in
  for i = 0 to transmissions - 1 do
    Span.time spans ~parent "sim.network" (fun () ->
        let tx = Network.transmit network ~time:(float_of_int i *. spacing) in
        for r = 0 to receivers - 1 do
          ignore (Network.lost tx r)
        done)
  done

(* Step 5b: the engine alone, at the run's event count: per transmission,
   schedule that transmission's share of the events and drain them. *)
let replay_engine spans ~parent ~events ~transmissions =
  let engine = Engine.create () in
  let per_tx = max 1 (events / max 1 transmissions) in
  let noop () = () in
  let scheduled = ref 0 in
  while !scheduled < events do
    let batch = min per_tx (events - !scheduled) in
    Span.time spans ~parent "sim.engine" (fun () ->
        for i = 1 to batch do
          ignore (Engine.after engine (1e-6 *. float_of_int i) noop)
        done;
        while Engine.step engine do
          ()
        done);
    scheduled := !scheduled + batch
  done

(* Step 5c: count-vector thinning of the aggregate remainder, one span
   per packet, with each TG's transmission count from the capture. *)
let replay_thinning spans ~parent ~seed (r : replay) =
  let rng = Rng.create ~seed () in
  let per_tg = Hashtbl.create 16 in
  List.iter
    (function
      | Header.Data { tg_id; _ } | Header.Parity { tg_id; _ } ->
        Hashtbl.replace per_tg tg_id (1 + Option.value ~default:0 (Hashtbl.find_opt per_tg tg_id))
      | _ -> ())
    r.sent;
  let spacing = Workload.agg_config.spacing in
  let time = ref 0.0 and packets = ref 0 in
  Hashtbl.iter
    (fun tg count ->
      let k = Array.length (Np_machine.Sender.block_data r.sender ~tg) in
      let population =
        Aggregate.create rng
          ~size:(Workload.agg_population - Workload.agg_cohort)
          ~k ~channel:Workload.agg_channel ~time:!time
      in
      for _ = 1 to count do
        time := !time +. spacing;
        incr packets;
        Span.time spans ~parent "aggregate.thin" (fun () ->
            Aggregate.receive population rng ~time:!time)
      done)
    per_tg;
  !packets

type run_stats = {
  wall_s : float;
  cpu_s : float;
  sys_s : float;
  gc : Gc.stat;  (** deltas over the transfer *)
  outcome : Workload.outcome;
}

let measured ?recorder (prepared : Workload.prepared) =
  let gc0 = Gc.quick_stat () and times0 = Unix.times () and t0 = Span.now_ns () in
  let outcome = prepared.transfer ?recorder () in
  let wall_s = Bench.seconds_since t0 and times1 = Unix.times () and gc1 = Gc.quick_stat () in
  let sys_s = times1.Unix.tms_stime -. times0.Unix.tms_stime in
  let gc =
    {
      gc1 with
      Gc.minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    }
  in
  { wall_s; cpu_s = times1.Unix.tms_utime -. times0.Unix.tms_utime +. sys_s; sys_s; gc; outcome }

let counter o name = Option.value ~default:0 (List.assoc_opt name o.Workload.counters)
let gauge o name = Option.value ~default:0.0 (List.assoc_opt name o.Workload.gauges)

let run w ~seed ~spans_out =
  let prepared = Workload.setup ~traced:true w ~seed in
  let untraced = measured prepared in
  let recorder = Recorder.create () in
  let traced = measured ~recorder (Workload.setup ~traced:true w ~seed) in
  let o = traced.outcome in
  let machines =
    match w with
    | Workload.Udp_bulk | Workload.Sim_exact_rlnc -> o.receivers
    | Workload.Sim_aggregate -> Workload.agg_cohort
  in
  let events = parse_capture recorder in
  let spans = Span.create () in
  let pass name f = Span.enclose spans name f in
  let r =
    pass "replay.machine" (fun parent ->
        replay_machines spans ~parent prepared ~receivers:machines events)
  in
  let decode_minor, wire_failures =
    pass "replay.wire" (fun parent -> replay_wire spans ~parent r.sent)
  in
  let transmissions = o.data_tx + o.parity_tx in
  (match w with
  | Workload.Udp_bulk -> ()
  | Workload.Sim_exact_rlnc ->
    let network =
      Network.independent (Rng.create ~seed ()) ~receivers:Workload.exact_receivers
        ~p:Workload.exact_loss
    in
    pass "replay.sim" (fun parent ->
        replay_network spans ~parent network ~transmissions ~spacing:Workload.exact_profile.pacing;
        replay_engine spans ~parent ~events:o.engine_events ~transmissions)
  | Workload.Sim_aggregate ->
    pass "replay.sim" (fun parent ->
        replay_network spans ~parent (Workload.cohort_network (Rng.create ~seed ()))
          ~transmissions ~spacing:Workload.agg_config.spacing;
        replay_engine spans ~parent ~events:o.engine_events ~transmissions));
  let thinned =
    match w with
    | Workload.Sim_aggregate ->
      pass "replay.aggregate" (fun parent -> replay_thinning spans ~parent ~seed r)
    | Workload.Udp_bulk | Workload.Sim_exact_rlnc -> 0
  in
  let table = Span.self_by_name (Span.spans spans) in
  let self = Span.self_s table and calls = Span.calls table in
  if spans_out <> "" then Span.write ~path:spans_out spans;
  (* --- layer totals --- *)
  (* A machine call's self time: its span less the codec work redone for
     it, floored at 0 where replay noise exceeds the machine's share. *)
  let class_s c =
    let name = class_name c in
    Float.max 0.0 (self name -. Option.value ~default:0.0 (Hashtbl.find_opt r.codec_s name))
  in
  let class_n c = calls (class_name c) in
  let sum classes = List.fold_left (fun a c -> a +. class_s c) 0.0 classes in
  let sender_self = sum [ Tick; Feedback; Sender_other ] in
  let receiver_self = sum [ Payload; Poll; Nak_overheard; Timer; Receiver_other ] in
  let encode_s = self "codec.encode" and decode_s = self "codec.decode" in
  let messages = List.length r.sent in
  let encode_ns = per (self "wire.encode" *. 1e9) messages in
  let decode_ns = per (self "wire.decode" *. 1e9) messages in
  (* Decodes the run really performed: one per datagram message received
     over UDP, one shared round-trip per message on the sim tiers. *)
  let real_decodes =
    match w with
    | Workload.Udp_bulk ->
      List.fold_left (fun a n -> a + counter o n) 0
        [ "rx.data"; "rx.parity"; "rx.poll"; "rx.exhausted"; "rx.naks_overheard"; "sender.naks_rx" ]
    | Workload.Sim_exact_rlnc | Workload.Sim_aggregate -> messages
  in
  let wire_s =
    ((encode_ns *. float_of_int messages) +. (decode_ns *. float_of_int real_decodes)) /. 1e9
  in
  let network_s = self "sim.network" and engine_s = self "sim.engine" in
  let thin_s = self "aggregate.thin" in
  let covered =
    sender_self +. receiver_self +. encode_s +. decode_s +. wire_s +. network_s +. engine_s
    +. thin_s
  in
  let remainder = untraced.cpu_s -. covered -. untraced.sys_s in
  let driver w' = if w = w' then remainder else 0.0 in
  let receptions = class_n Payload in
  let udp = w = Workload.Udp_bulk in
  let datagrams_tx = counter o "udp.datagrams_tx" and datagrams_rx = counter o "udp.datagrams_rx" in
  let messages_tx =
    Workload.udp_receivers
    * (counter o "tx.data" + counter o "tx.parity" + counter o "tx.poll" + counter o "tx.exhausted"
      + counter o "rx.naks_tx")
  in
  (* NAKs leave one datagram per syscall (sender plus every peer); the rest
     of the sends go through the batched flush. *)
  let nak_datagrams = Workload.udp_receivers * counter o "rx.naks_tx" in
  let mb = float_of_int o.bytes /. 1e6 in
  (* §5 end-host constants fitted from the split (seconds): machine self
     time per call of the matching event class plus the wire encode or
     decode the same packet costs. *)
  let encode_wire = encode_ns /. 1e9 and decode_wire = decode_ns /. 1e9 in
  let fitted =
    {
      Endhost.packet_send = per (class_s Tick) transmissions +. encode_wire;
      packet_recv = per (class_s Payload) receptions +. decode_wire;
      nak_sender = per (class_s Feedback) (class_n Feedback) +. decode_wire;
      nak_send = per (class_s Timer) r.naks_sent +. encode_wire;
      nak_recv = per (class_s Nak_overheard) (class_n Nak_overheard) +. decode_wire;
      timer = per (class_s Poll) (class_n Poll);
      encode_per_packet = per encode_s (r.encoded * prepared.machine.k);
      decode_per_packet = per decode_s r.reconstructed;
    }
  in
  let p, receivers_model =
    match w with
    | Workload.Udp_bulk -> (Workload.udp_loss, Workload.udp_receivers)
    | Workload.Sim_exact_rlnc -> (Workload.exact_loss, Workload.exact_receivers)
    | Workload.Sim_aggregate -> (Workload.agg_loss, Workload.agg_population)
  in
  let predict constants =
    (Endhost.np ~constants ~p ~k:prepared.machine.k ~receivers:receivers_model ())
      .Endhost.throughput
  in
  let payload = Bytes.length prepared.data.(0) in
  let to_mbps pkts = pkts *. float_of_int payload /. 1e6 in
  Printf.printf
    "traced %s: %d bytes (untraced wall %.3f s, traced %.3f s); %d spans; capture %d events\n"
    (Workload.to_string w) o.bytes untraced.wall_s traced.wall_s (List.length (Span.spans spans))
    (List.length events);
  Printf.printf
    "endhost yardstick (eq. 9, p=%g k=%d R=%d): fitted constants %.0f pkt/s = %.3f MB/s | paper \
     constants %.0f pkt/s = %.3f MB/s | measured goodput %.3f MB/s\n"
    p prepared.machine.k receivers_model (predict fitted) (to_mbps (predict fitted))
    (predict Endhost.paper_constants) (to_mbps (predict Endhost.paper_constants))
    (mb /. untraced.wall_s);
  let m = Metric.make and f = float_of_int in
  let bytes_per_word = f (Sys.word_size / 8) in
  let tgs = Np_machine.Sender.tg_count r.sender in
  let sum_rx g = f (Array.fold_left (fun a rx -> a + g rx) 0 r.receivers) in
  let rate bytes s = if s > 0.0 then f bytes /. 1e6 /. s else 0.0 in
  let metrics =
    [
      m "transport.syscalls_per_datagram" "ratio" (gauge o "udp.syscalls_per_datagram");
      m "transport.datagrams_per_sendmmsg" "ratio"
        (per (f (datagrams_tx - nak_datagrams)) (counter o "udp.syscalls_tx" - nak_datagrams));
      m "transport.datagrams_per_recvmmsg" "ratio"
        (per (f datagrams_rx) (counter o "udp.syscalls_rx"));
      m "transport.messages_per_datagram" "ratio"
        (if udp then per (f messages_tx) datagrams_tx else 0.0);
      m "transport.sys_s" "s" (if udp then untraced.sys_s else 0.0);
      m "transport.idle_s" "s" (if udp then untraced.wall_s -. untraced.cpu_s else 0.0);
      m "transport.timer_fires_per_packet" "ratio"
        (per (f (counter o "reactor.timer_fires")) transmissions);
      m "transport.kernel_drops" "count" (f (datagrams_tx - datagrams_rx));
      m "transport.tx_errors" "count" (f (counter o "udp.tx_errors"));
      m "pool.peak_outstanding" "count" (gauge o "pool.peak_outstanding");
      m "pool.overflow_allocs" "count" (gauge o "pool.overflow_allocs");
      m "wire.encode_ns" "ns" encode_ns;
      m "wire.decode_ns" "ns" decode_ns;
      m "wire.decodes_per_packet" "ratio" (per (f real_decodes) messages);
      m "wire.alloc_bytes_per_decode" "B" (per (decode_minor *. bytes_per_word) messages);
      m "wire.decode_failures" "count"
        (f (wire_failures + counter o "rx.decode_failures" + counter o "sender.decode_failures"));
      m "machine.sender_us_per_event" "us" (us_of_s (per sender_self r.sender_events));
      m "machine.receiver_us_per_event" "us" (us_of_s (per receiver_self r.receiver_events));
      m "machine.events_per_packet" "ratio"
        (per (f (r.sender_events + r.receiver_events)) transmissions);
      m "machine.suppression_ratio" "ratio" (per (f o.suppressed) (o.naks + o.suppressed));
      m "machine.repair_rounds_per_tg" "ratio"
        (per (f (Np_machine.Sender.repair_rounds r.sender)) tgs);
      m "machine.unnecessary_per_receiver" "count"
        (per (sum_rx Np_machine.Receiver.unnecessary) machines);
      m "machine.duplicates" "count" (sum_rx Np_machine.Receiver.duplicates);
      m "codec.encode_MBps" "MB/s" (rate (r.encoded * payload) encode_s);
      m "codec.decode_MBps" "MB/s" (rate r.decoded_bytes decode_s);
      m "codec.encode_s" "s" encode_s;
      m "codec.decode_s" "s" decode_s;
      m "codec.parities_per_tg" "ratio" (per (f r.encoded) tgs);
      m "codec.decoded_per_receiver" "count" (per (f r.reconstructed) machines);
      m "codec.innovative_ratio" "ratio" (per (f r.innovative) r.adds);
      m "codec.alloc_bytes_per_reception" "B" (per (r.decode_minor_words *. bytes_per_word) r.adds);
      m "sim.network_us_per_transmission" "us" (us_of_s (per network_s (calls "sim.network")));
      m "sim.engine_events_per_packet" "ratio" (per (f o.engine_events) transmissions);
      m "sim.engine_us_per_event" "us" (us_of_s (per engine_s o.engine_events));
      m "aggregate.thin_us_per_packet" "us" (us_of_s (per thin_s thinned));
      m "aggregate.cohort_share" "ratio"
        (if w = Workload.Sim_aggregate then
           (receiver_self +. decode_s) /. (receiver_self +. decode_s +. thin_s)
         else 0.0);
      m "aggregate.virtual_naks_per_tg" "count" (per (f o.virtual_naks) o.tgs);
      m "driver.udp_self_s" "s" (driver Workload.Udp_bulk);
      m "driver.mux_self_s" "s" (driver Workload.Sim_exact_rlnc);
      m "driver.aggregate_self_s" "s" (driver Workload.Sim_aggregate);
      m "gc.alloc_bytes_per_MB" "B/MB"
        ((untraced.gc.minor_words +. untraced.gc.major_words -. untraced.gc.promoted_words)
        *. bytes_per_word /. mb);
      m "gc.minor_words_per_rx_packet" "words" (per untraced.gc.minor_words receptions);
      m "gc.major_collections" "count" (f untraced.gc.major_collections);
      m "endhost.Xp_us" "us" (us_of_s fitted.packet_send);
      m "endhost.Yp_us" "us" (us_of_s fitted.packet_recv);
      m "endhost.Xn_us" "us" (us_of_s fitted.nak_sender);
      m "endhost.Yn_us" "us" (us_of_s fitted.nak_send);
      m "endhost.Ypn_us" "us" (us_of_s fitted.nak_recv);
      m "endhost.Yt_us" "us" (us_of_s fitted.timer);
      m "endhost.ce_us" "us" (us_of_s fitted.encode_per_packet);
      m "endhost.cd_us" "us" (us_of_s fitted.decode_per_packet);
      m "trace.overhead_s" "s" (traced.wall_s -. untraced.wall_s);
    ]
  in
  let reasons =
    Bench.check w ~previous:None untraced.outcome @ Bench.check w ~previous:None o
  in
  List.iter (fun r -> Printf.printf "check failed: %s\n" r) reasons;
  let attempted = untraced.outcome.receivers + o.receivers in
  let failed = untraced.outcome.failed + o.failed in
  (reasons = [], attempted, (if reasons = [] then failed else max failed 1), metrics)
