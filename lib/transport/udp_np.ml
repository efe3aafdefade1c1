module Rng = Rmc_numerics.Rng
module Header = Rmc_wire.Header
module Buffer_pool = Rmc_pool.Buffer_pool
module Metrics = Rmc_obs.Metrics
module Fault = Rmc_obs.Fault
module Profile = Rmc_core.Profile
module Error = Rmc_core.Error
module Np_machine = Rmc_proto.Np_machine
module Np_replay = Rmc_proto.Np_replay
module Np_drive = Rmc_proto.Np_drive

type transport = [ `Unicast | `Multicast ]

type config = {
  k : int;
  h : int;
  proactive : int;
  payload_size : int;
  spacing : float;
  slot : float;
  pre_encode : bool;
  linger : float;
  session_timeout : float;
  codec : Rmc_rse.Codec.kind;
  controller : Profile.controller;
}

let config_of_profile ?(linger = 0.050) ?(session_timeout = 5.0) (p : Profile.t) =
  {
    k = p.Profile.k;
    h = p.Profile.h;
    proactive = p.Profile.proactive;
    payload_size = p.Profile.payload_size;
    spacing = p.Profile.pacing;
    slot = p.Profile.slot;
    pre_encode = p.Profile.pre_encode;
    linger;
    session_timeout;
    codec = p.Profile.codec;
    controller = p.Profile.controller;
  }

let default_config = config_of_profile Profile.default_udp

let profile_of_config c =
  {
    Profile.k = c.k;
    h = c.h;
    proactive = c.proactive;
    payload_size = c.payload_size;
    pacing = c.spacing;
    slot = c.slot;
    pre_encode = c.pre_encode;
    codec = c.codec;
    controller = c.controller;
  }

type report = {
  receivers : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  naks_sent : int;
  naks_suppressed : int;
  datagrams_dropped : int;
  decode_failures : int;
  completed : int;
  verified : bool;
  ejected : (int * int) list;
  wall_seconds : float;
  counters : (string * int) list;
}

type session_report = {
  session : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  completed : int;  (* receivers that completed every TG of this session *)
  verified : bool;
  ejected : (int * int) list;  (* (receiver, local tg) pairs *)
}

type multi_report = {
  receivers : int;
  session_reports : session_report array;
  naks_sent : int;
  naks_suppressed : int;
  datagrams_dropped : int;
  decode_failures : int;
  all_verified : bool;
  wall_seconds : float;
  counters : (string * int) list;
}

(* --- session demux on the wire ---------------------------------------- *)

(* The 32-bit wire [tg_id] carries the session id in its upper 16 bits and
   the session-local TG index in the lower 16 ({!Np_replay.wire_tg}) — no
   wire-format change, and a single-session run (sid 0) puts exactly the
   bytes on the wire it always did.  Only ids the entry-point validation
   has bounded are composed. *)

(* The damping RNG a receiver's machine draws from is split off from the
   loss-injection stream so a replay (which sees no loss draws — dropped
   datagrams never become events) can reconstruct it from the seed alone. *)
let receiver_machine_seed ~seed ~id = seed + (id * 7919) + 104729

(* --- socket helpers -------------------------------------------------- *)

(* The one receive ring's slots and the pool's buffers are this size: it
   covers every packet the protocol can produce. *)
let max_datagram = Header.max_datagram

(* The largest UDP payload the kernel accepts in one datagram (65535 minus
   IP and UDP headers): the budget a coalesced frame must fit. *)
let max_frame = 65507

let make_socket () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (try
     Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
     Unix.set_nonblock socket
   with e ->
     Unix.close socket;
     raise e);
  socket

(* A shard's datagram surface, built once per run: the recv ring every
   socket drains through, the send batch every datagram leaves through,
   the buffer pool, and the counters every socket shares.
   Sockets are plain descriptors.  Sharing one ring and one batch is safe
   because a reactor callback drains one socket until it is dry, each
   message's payload is copied out of its slot before the next receive,
   and every callback that queues datagrams (sender pump, NAK fan-out,
   fault-shim timer) flushes them before it returns. *)
type surface = {
  ring : Udp_batch.recv;
  tx_batch : Udp_batch.send;
  pool : Buffer_pool.t;
  tx_errors : Metrics.counter;
  datagrams_tx : Metrics.counter;
  datagrams_rx : Metrics.counter;
  syscalls_tx : Metrics.counter;
  syscalls_rx : Metrics.counter;
}

(* The one way a datagram leaves this driver: queue it on the surface's
   [tx_batch] with [Udp_batch.add], then [flush] it from [socket].  The
   flush hands every queued datagram to the kernel in as few [sendmmsg]
   calls as the batch needs (EINTR is retried in the stubs); an entry the
   kernel refuses (EAGAIN under extreme pressure behaves like network
   loss) is counted, never silently swallowed. *)
let flush surface socket =
  let { Udp_batch.sent; errors; syscalls } = Udp_batch.flush surface.tx_batch socket in
  Metrics.incr ~by:sent surface.datagrams_tx;
  Metrics.incr ~by:syscalls surface.syscalls_tx;
  if errors > 0 then Metrics.incr ~by:errors surface.tx_errors

(* Walk a datagram that may be a coalesced frame: several consecutive
   encoded messages, each self-delimited by its header's length field.  A
   boundary that cannot be established (bad magic after a valid prefix,
   truncation) ends the walk — the rest of the frame is undecodable; a
   message that delimits but fails validation (a corrupted CRC) is skipped
   and the walk continues at the next boundary. *)
let walk_frame ?on_decode_error buffer ~len ~from handle =
  let fail () = match on_decode_error with Some f -> f () | None -> () in
  let rec go off =
    if off < len then
      match Header.frame_length buffer ~off ~len:(len - off) with
      | Error _ -> fail ()
      | Ok frame_len ->
        (match Header.decode_slice buffer ~off ~len:frame_len with
        | Ok message -> handle message from
        | Error _ -> fail ());
        go (off + frame_len)
  in
  go 0

(* Ring-based drain: up to [slots] queued datagrams per syscall.  A drain
   that fills every slot loops (more may be queued); a partial fill means
   the socket is dry — no trailing empty recv syscall. *)
let drain ?on_decode_error ~ring ~syscalls ~datagrams socket handle =
  let rec loop () =
    Metrics.incr syscalls;
    let n = Udp_batch.recv_batch ring socket in
    for i = 0 to n - 1 do
      Metrics.incr datagrams;
      walk_frame ?on_decode_error (Udp_batch.slot ring i) ~len:(Udp_batch.slot_len ring i)
        ~from:(Udp_batch.slot_from ring i) handle
    done;
    if n = Udp_batch.slots ring then loop ()
  in
  loop ()

(* --- sender ----------------------------------------------------------- *)

(* The protocol lives in the shared sans-IO core, bound through
   {!Np_drive} (capture, retunes); this driver owns the session id, the
   socket fan-out, pacing via the reactor, the fault shim and the metrics.
   The machine speaks session-local tg ids; every outgoing message is
   rewritten into the wire namespace here. *)
type sender = {
  sid : int;
  config : config;
  reactor : Reactor.t;
  surface : surface;
  socket : Unix.file_descr;
  group : Unix.sockaddr list;
  drive : Np_drive.Sender.t;
  shim : Fault.t option;
  tamper : Header.message -> Header.message; (* [For_testing] only *)
  mutable sending : bool;
  mutable due : float;  (* when the next DATA/PARITY may leave *)
  c_exhausted : Metrics.counter;
  c_naks_rx : Metrics.counter;
}

(* One frame of a pump's batch: a pooled buffer accumulating sealed
   messages back to back, and whether the fault shim applies (it only sees
   data/parity, and only when frames carry a single message). *)
type frame = { buf : Bytes.t; mutable len : int; payload_bearing : bool }

(* Serialize a machine-emitted message at [off] of a pooled buffer.  The
   machine speaks session-local tg ids; rather than rebuilding the message
   in the wire namespace, the sid is poked into the already-encoded bytes
   and the CRC resealed in place.  A single-session run (sid 0) needs no
   rewrite and puts exactly the bytes on the wire it always did. *)
let sender_encode sender buf ~off message =
  let len = Header.encode_into buf ~off (sender.tamper message) in
  if sender.sid <> 0 then begin
    Header.set_tg_id buf ~off (Np_replay.wire_tg ~sid:sender.sid (Header.tg_id message));
    Header.reseal_slice buf ~off ~len
  end;
  len

(* Append a message to the pump's batch.  Without a fault shim the message
   coalesces onto the current frame while it fits the kernel's datagram
   budget — a whole pump rides one datagram per destination.  With a shim,
   every message gets its own frame so faults keep applying per datagram
   per destination, exactly as the loss model demands. *)
let sender_enqueue sender batch ~payload_bearing message =
  match batch with
  | frame :: _
    when Option.is_none sender.shim
         && frame.len + Header.encoded_size message <= max_frame ->
    frame.len <- frame.len + sender_encode sender frame.buf ~off:frame.len message;
    batch
  | _ ->
    let buf = Buffer_pool.checkout sender.surface.pool in
    let len = sender_encode sender buf ~off:0 message in
    { buf; len; payload_bearing } :: batch

(* Flush a pump's batch.

   Every (frame, destination) pair goes to the kernel through one
   sendmmsg-backed {!flush}: serialize + sid-rewrite + reseal happen once
   per message regardless of group size, and the whole pump costs
   ceil(frames * group / max_batch) syscalls instead of one per datagram.
   In multicast mode [group] is the single group address and the kernel
   does the fan-out too.

   The fault shim sits at the datagram boundary: every data/parity
   datagram passes through it independently per destination, so each
   receiver of the unicast fan-out sees its own drop/duplicate/reorder/
   corrupt pattern.  Control datagrams (POLL, NAK, EXHAUSTED) are spared,
   matching the loss model of the §5 analysis (and of the [~loss]
   reception injection below).  Shimmed runs keep one message per frame,
   but what the shim sends joins the same batch and flush; a datagram it
   delays is flushed by its own timer. *)
let sender_flush sender batch =
  let surface = sender.surface in
  List.iter
    (fun { buf; len; payload_bearing } ->
      match sender.shim with
      | Some shim when payload_bearing ->
        (* The shim may hold, delay or duplicate the datagram beyond this
           pump, so it owns a copy; pooled buffers never escape the
           flush. *)
        let packet = Bytes.sub buf 0 len in
        let now = Unix.gettimeofday () in
        List.iter
          (fun destination ->
            Fault.apply shim ~now
              ~defer:(fun delay thunk ->
                ignore
                  (Reactor.after sender.reactor delay (fun () ->
                       thunk ();
                       flush surface sender.socket)))
              ~send:(fun bytes ->
                Udp_batch.add surface.tx_batch bytes ~len:(Bytes.length bytes) destination)
              packet)
          sender.group
      | _ -> List.iter (Udp_batch.add surface.tx_batch buf ~len) sender.group)
    (List.rev batch);
  flush surface sender.socket;
  List.iter (fun frame -> Buffer_pool.release surface.pool frame.buf) batch

let sender_machine sender = Np_drive.Sender.machine sender.drive

(* Fold one tick effect into the pump's batch and its byte count.  Every
   DATA/PARITY is one [spacing] of the sender's schedule. *)
let sender_effect sender ((batch, used) as acc) effect =
  match effect with
  | Np_machine.Send message -> (
    let send ~payload_bearing =
      if payload_bearing then sender.due <- sender.due +. sender.config.spacing;
      (sender_enqueue sender batch ~payload_bearing message, used + Header.encoded_size message)
    in
    match message with
    | Header.Data _ | Header.Parity _ -> send ~payload_bearing:true
    | Header.Poll _ -> send ~payload_bearing:false
    | Header.Exhausted _ ->
      Metrics.incr sender.c_exhausted;
      send ~payload_bearing:false
    | Header.Nak _ -> acc)
  | _ -> acc

(* Catch-up pacing: one pump ticks the machine while it is pending and its
   next packet is due, so a sender behind schedule sends every due packet
   at once; [due] is absolute, so the schedule never drifts.  The pump
   stops before one more full-size message would overflow one frame (a
   first message always goes, however large), flushes once and re-arms
   for the next due time. *)
let rec sender_pump sender =
  let machine = sender_machine sender in
  if not (Np_machine.Sender.pending machine) then sender.sending <- false
  else begin
    let now = Unix.gettimeofday () in
    let full = Header.header_size + sender.config.payload_size in
    let rec catch_up ((_, used) as acc) =
      if
        Np_machine.Sender.pending machine
        && sender.due <= now
        && (used = 0 || used + full <= max_frame)
      then
        catch_up
          (List.fold_left (sender_effect sender) acc (Np_drive.Sender.tick sender.drive))
      else acc
    in
    sender_flush sender (fst (catch_up ([], 0)));
    ignore (Reactor.after sender.reactor (sender.due -. now) (fun () -> sender_pump sender))
  end

(* A sender waking from idle starts its schedule now: having had nothing
   to send never earns a burst. *)
let sender_wake sender =
  if not sender.sending then begin
    sender.sending <- true;
    sender.due <- Unix.gettimeofday ();
    ignore (Reactor.after sender.reactor 0.0 (fun () -> sender_pump sender))
  end

let sender_handle_nak sender ~tg_id ~need ~round =
  Metrics.incr sender.c_naks_rx;
  ignore (Np_drive.Sender.feedback sender.drive ~tg:tg_id ~need ~round);
  if Np_machine.Sender.pending (sender_machine sender) then sender_wake sender

(* [metrics] is already scoped per session by the caller; the NAK handler
   for the shared socket lives with the driver, not here, because many
   senders share one socket. *)
let create_sender reactor ~surface ~socket ~group ~config ~sid ~data ~receivers ~metrics ~shim
    ~tamper ~recorder =
  let sender =
    {
      sid;
      config;
      reactor;
      surface;
      socket;
      group;
      drive =
        Np_drive.Sender.create ?recorder ~actor:("s" ^ string_of_int sid) ~receivers
          (profile_of_config config) ~data;
      shim;
      tamper;
      sending = false;
      due = 0.0;
      c_exhausted = Metrics.counter metrics "tx.exhausted";
      c_naks_rx = Metrics.counter metrics "sender.naks_rx";
    }
  in
  sender_wake sender;
  sender

(* --- receiver ---------------------------------------------------------- *)

type receiver = {
  surface : surface;
  tx_socket : Unix.file_descr;  (* NAKs leave here; the rx socket in unicast mode *)
  self_addr : Unix.sockaddr option;
      (* multicast: the tx socket's address, to drop looped-back copies of
         our own NAKs (every group member receives every group datagram) *)
  sender_addr : Unix.sockaddr;
  nak_peers : Unix.sockaddr list;
      (* where NAKs go besides the sender: every peer (unicast mode) or
         the group address (multicast mode) *)
  loss_rng : Rng.t;  (* reception-loss injection (driver-side, not replayed) *)
  loss : float;
  machine : Np_machine.Receiver.t;  (* bound through {!Np_drive}; the run's ledger *)
  on_done : unit -> unit;
  mutable dropped : int;
  mutable decode_failures : int;
  c_data : Metrics.counter;
  c_parity : Metrics.counter;
  c_poll : Metrics.counter;
  c_exhausted : Metrics.counter;
  c_naks_overheard : Metrics.counter;
}

(* Every receiver effect but the NAK timers, which the binding performs on
   the reactor's clock. *)
let receiver_apply receiver effect =
  match effect with
  | Np_machine.Send (Header.Nak _ as nak) ->
    (* The NAK is "multicast": to the sender plus every peer (unicast
       fan-out) or the group (real multicast), so suppression really
       happens by overhearing datagrams.  One pooled buffer serves the
       whole fan-out, which leaves in one flush. *)
    let surface = receiver.surface in
    Buffer_pool.with_buf surface.pool (fun buf ->
        let len = Header.encode_into buf ~off:0 nak in
        List.iter (Udp_batch.add surface.tx_batch buf ~len)
          (receiver.sender_addr :: receiver.nak_peers);
        flush surface receiver.tx_socket)
  | Np_machine.Done -> receiver.on_done ()
  | _ -> ()

let create_receiver reactor ~clock ~surface ~socket ~tx_socket ~self_addr ~nak_peers ~sender_addr
    ~machine_config ~seed ~loss ~id ~metrics ~expected ~scoreboard ~recorder ~on_done =
  let machine_rng = Rng.create ~seed:(receiver_machine_seed ~seed ~id) () in
  let receiver =
    {
      surface;
      tx_socket;
      self_addr;
      sender_addr;
      nak_peers;
      loss_rng = Rng.create ~seed:(seed + (id * 7919)) ();
      loss;
      machine =
        Np_machine.Receiver.create ~expected machine_config ~rand:(fun () ->
            Rng.float machine_rng);
      on_done;
      dropped = 0;
      decode_failures = 0;
      c_data = Metrics.counter metrics "rx.data";
      c_parity = Metrics.counter metrics "rx.parity";
      c_poll = Metrics.counter metrics "rx.poll";
      c_exhausted = Metrics.counter metrics "rx.exhausted";
      c_naks_overheard = Metrics.counter metrics "rx.naks_overheard";
    }
  in
  let drive =
    Np_drive.Receiver.create ?recorder ~actor:("r" ^ string_of_int id) ~clock ~scoreboard
      ~apply:(receiver_apply receiver) receiver.machine
  in
  let receive message = Np_drive.Receiver.receive drive (Np_machine.Packet_received message) in
  (* Data/parity reception passes the injected loss first. *)
  let receive_payload counter message =
    Metrics.incr counter;
    if Rng.bernoulli receiver.loss_rng receiver.loss then
      receiver.dropped <- receiver.dropped + 1
    else receive message
  in
  Reactor.on_readable reactor socket (fun () ->
      drain
        ~on_decode_error:(fun () ->
          receiver.decode_failures <- receiver.decode_failures + 1)
        ~ring:surface.ring ~syscalls:surface.syscalls_rx ~datagrams:surface.datagrams_rx socket
        (fun message from ->
          match message with
          | Header.Data _ -> receive_payload receiver.c_data message
          | Header.Parity _ -> receive_payload receiver.c_parity message
          | Header.Poll _ ->
            Metrics.incr receiver.c_poll;
            receive message
          | Header.Nak _ ->
            (* The source is read only here: a receiver's tx socket sends
               nothing but NAKs, one per datagram, so only a NAK can be
               our own looped-back multicast copy. *)
            let own_echo =
              match receiver.self_addr with Some self -> from = self | None -> false
            in
            if not (own_echo || from = receiver.sender_addr) then begin
              Metrics.incr receiver.c_naks_overheard;
              receive message
            end
          | Header.Exhausted _ ->
            Metrics.incr receiver.c_exhausted;
            receive message));
  receiver

(* --- the shared engine: N sessions, one reactor ------------------------ *)

(* One shard's run: one reactor, one datagram surface, one sender socket
   multiplexing every session's datagrams (demuxed by the sid in the wire
   [tg_id]), one receiver socket per receiver serving all sessions.
   Session index [i] has wire session id [first_sid + i]: the shard's
   slice of the global namespace, the identity when there is one shard. *)
let run_engine ~config ~metrics ~recorder ~faults ~tamper ~transport ~receivers ~loss
    ~seed ~sessions ~first_sid ~sender_metrics =
  let shim = Option.map (fun spec -> Fault.create ~metrics spec) faults in
  let reactor = Reactor.create ~metrics () in
  let clock = { Np_drive.after = Reactor.after reactor; cancel = Reactor.cancel } in
  let machine_config = Np_replay.machine_config (profile_of_config config) in
  let started = Unix.gettimeofday () in
  let nsessions = Array.length sessions in
  let index_of_wire wire =
    let index = Np_replay.sid_of_wire wire - first_sid in
    if index >= 0 && index < nsessions then Some index else None
  in
  (match recorder with
  | Some r ->
    Np_replay.record_setup r ~controller:config.controller ~config:machine_config
      ~payload_size:config.payload_size ~receivers
      ~sessions
      ~rx_seeds:(Array.init receivers (fun id -> receiver_machine_seed ~seed ~id))
      ()
  | None -> ());

  (* Every socket of the shard shares this surface.  Its pool serves every
     session's sender and every receiver's NAK path: buffers are released
     within the event that checked them out, so the peak population is the
     largest single batch, not the datagram rate. *)
  let surface =
    {
      ring = Udp_batch.recv_create ~buf_size:max_datagram ();
      tx_batch = Udp_batch.send_create ();
      pool = Buffer_pool.create ~capacity:16 ~buf_size:max_datagram ();
      tx_errors = Metrics.counter metrics "udp.tx_errors";
      datagrams_tx = Metrics.counter metrics "udp.datagrams_tx";
      datagrams_rx = Metrics.counter metrics "udp.datagrams_rx";
      syscalls_tx = Metrics.counter metrics "udp.syscalls_tx";
      syscalls_rx = Metrics.counter metrics "udp.syscalls_rx";
    }
  in
  (* Every socket is registered here the moment it exists and closed in
     the one [Fun.protect] finalizer below — an exception anywhere between
     socket creation and the end of the run (a raising machine
     constructor, a reactor refusing one more descriptor, EMFILE halfway
     through the receiver array) can no longer leak descriptors. *)
  let opened = ref [] in
  let track socket =
    opened := socket :: !opened;
    socket
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun socket -> try Unix.close socket with Unix.Unix_error _ -> ()) !opened)
  @@ fun () ->
  let mcast_group =
    match transport with
    | `Unicast -> None
    | `Multicast -> Some (Udp_multicast.group_of_seed seed)
  in
  let sender_socket =
    track
      (match mcast_group with
      | None -> make_socket ()
      | Some _ -> Udp_multicast.sender_socket ())
  in
  let receiver_sockets =
    Array.init receivers (fun _ ->
        track
          (match mcast_group with
          | None -> make_socket ()
          | Some group -> Udp_multicast.receiver_socket group))
  in
  (* Real multicast receivers share one port, so their group sockets
     cannot source NAKs distinguishably; each gets a private tx socket
     whose address also identifies (and filters) its own looped-back group
     copies. *)
  let receiver_tx_sockets =
    match mcast_group with
    | None -> None
    | Some _ -> Some (Array.init receivers (fun _ -> track (Udp_multicast.sender_socket ())))
  in
  let addr_of socket = Unix.getsockname socket in
  let sender_addr = addr_of sender_socket in
  let receiver_addrs = Array.map addr_of receiver_sockets in

  let group =
    match mcast_group with
    | Some g -> [ Udp_multicast.group_addr g ]
    | None -> Array.to_list receiver_addrs
  in

  (* Every receiver must resolve every TG of every session: the expected
     set that drives the machines' Done effect, and the scoreboard every
     delivery is checked on.  The machines are the run's only ledger: the
     shard stops once each has emitted Done, and the report reads them. *)
  let expected =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun index data -> Np_replay.expected ~k:config.k ~sid:(first_sid + index) data)
            sessions))
  in
  let scoreboard = Np_drive.Scoreboard.create ~k:config.k ~first_sid sessions in
  let unfinished = ref receivers in
  let on_done () =
    decr unfinished;
    if !unfinished = 0 then
      (* Let in-flight datagrams drain, then stop the loop. *)
      ignore (Reactor.after reactor config.linger (fun () -> Reactor.stop reactor))
  in
  let rxs =
    Array.init receivers (fun id ->
        let tx_socket, self_addr =
          match receiver_tx_sockets with
          | Some sockets -> (sockets.(id), Some (addr_of sockets.(id)))
          | None -> (receiver_sockets.(id), None)
        in
        (* Unicast: each receiver overhears the NAKs of all the others via
           an explicit fan-out.  Multicast: the group address reaches every
           member. *)
        let nak_peers =
          match mcast_group with
          | Some _ -> group
          | None -> List.filteri (fun other _ -> other <> id) group
        in
        create_receiver reactor ~clock ~surface ~socket:receiver_sockets.(id) ~tx_socket
          ~self_addr ~nak_peers ~sender_addr ~machine_config ~seed ~loss ~id ~metrics ~expected
          ~scoreboard ~recorder ~on_done)
  in
  let senders =
    Array.init nsessions (fun index ->
        create_sender reactor ~surface ~socket:sender_socket ~group ~config
          ~sid:(first_sid + index) ~data:sessions.(index) ~receivers
          ~metrics:(sender_metrics (first_sid + index))
          ~shim ~tamper ~recorder)
  in
  (* One handler on the shared sender socket demuxes incoming NAKs to the
     owning session's sender. *)
  let c_decode_fail = Metrics.counter metrics "sender.decode_failures" in
  Reactor.on_readable reactor sender_socket (fun () ->
      drain ~on_decode_error:(fun () -> Metrics.incr c_decode_fail) ~ring:surface.ring
        ~syscalls:surface.syscalls_rx ~datagrams:surface.datagrams_rx sender_socket
        (fun message _from ->
          match message with
          | Header.Nak { tg_id; need; round } ->
            (match index_of_wire tg_id with
            | Some index ->
              sender_handle_nak senders.(index) ~tg_id:(Np_replay.local_of_wire tg_id) ~need
                ~round
            | None -> ())
          | Header.Data _ | Header.Parity _ | Header.Poll _ | Header.Exhausted _ -> ()));

  let minor_words_before = Gc.minor_words () in
  Reactor.run ~deadline:(started +. config.session_timeout) reactor;
  (* Surface the datapath's cost profile: minor words and syscalls burned
     per datagram moved (the end-host cost §5 bounds throughput by) and
     how hard the pool worked.  A leak — a pooled buffer still checked out
     after the loop drained — is a driver bug and raises. *)
  let minor_words = Gc.minor_words () -. minor_words_before in
  let moved = Metrics.count surface.datagrams_tx + Metrics.count surface.datagrams_rx in
  Metrics.set
    (Metrics.gauge metrics "datapath.minor_words_per_datagram")
    (minor_words /. float_of_int (max 1 moved));
  Metrics.set
    (Metrics.gauge metrics "udp.syscalls_per_datagram")
    (float_of_int (Metrics.count surface.syscalls_tx + Metrics.count surface.syscalls_rx)
    /. float_of_int (max 1 moved));
  Metrics.set
    (Metrics.gauge metrics "pool.capacity")
    (float_of_int (Buffer_pool.capacity surface.pool));
  Metrics.set
    (Metrics.gauge metrics "pool.peak_outstanding")
    (float_of_int (Buffer_pool.peak_outstanding surface.pool));
  Metrics.set
    (Metrics.gauge metrics "pool.overflow_allocs")
    (float_of_int (Buffer_pool.overflow_allocs surface.pool));
  Buffer_pool.assert_quiescent surface.pool;

  (* What the machines counted is published once, now the loop has
     stopped; only what no machine counts is bumped live. *)
  let publish metrics name value = Metrics.incr ~by:value (Metrics.counter metrics name) in
  Array.iteri
    (fun index sender ->
      let machine = sender_machine sender in
      let metrics = sender_metrics (first_sid + index) in
      publish metrics "tx.data" (Np_machine.Sender.data_tx machine);
      publish metrics "tx.parity" (Np_machine.Sender.parity_tx machine);
      publish metrics "tx.poll" (Np_machine.Sender.polls machine);
      publish metrics "sender.repair_rounds" (Np_machine.Sender.repair_rounds machine))
    senders;
  let sum_rx f = Array.fold_left (fun acc r -> acc + f r) 0 rxs in
  let naks_sent = sum_rx (fun r -> Np_machine.Receiver.naks_sent r.machine) in
  let naks_suppressed = sum_rx (fun r -> Np_machine.Receiver.naks_suppressed r.machine) in
  let datagrams_dropped = sum_rx (fun r -> r.dropped) in
  let decode_failures = sum_rx (fun r -> r.decode_failures) in
  publish metrics "rx.naks_tx" naks_sent;
  publish metrics "rx.naks_suppressed" naks_suppressed;
  publish metrics "rx.duplicates"
    (sum_rx (fun r -> Np_machine.Receiver.duplicates r.machine));
  publish metrics "rx.loss_dropped" datagrams_dropped;
  publish metrics "rx.decode_failures" decode_failures;

  let session_reports =
    Array.init nsessions (fun index ->
        let sid = first_sid + index in
        let machine = sender_machine senders.(index) in
        let tgs = Np_machine.Sender.tg_count machine in
        (* The session-local TGs receiver [id]'s machine resolved as [state]. *)
        let resolved state id =
          List.filter
            (fun local -> state rxs.(id).machine ~tg:(Np_replay.wire_tg ~sid local))
            (List.init tgs Fun.id)
        in
        let completed =
          List.length
            (List.filter
               (fun id -> List.length (resolved Np_machine.Receiver.delivered id) = tgs)
               (List.init receivers Fun.id))
        in
        {
          session = sid;
          transmission_groups = tgs;
          data_tx = Np_machine.Sender.data_tx machine;
          parity_tx = Np_machine.Sender.parity_tx machine;
          polls = Np_machine.Sender.polls machine;
          completed;
          verified =
            Np_drive.Scoreboard.verdict scoreboard ~session:index && completed = receivers;
          ejected =
            List.concat_map
              (fun id ->
                List.map (fun local -> (id, local)) (resolved Np_machine.Receiver.gave_up id))
              (List.init receivers Fun.id);
        })
  in
  {
    receivers;
    session_reports;
    naks_sent;
    naks_suppressed;
    datagrams_dropped;
    decode_failures;
    all_verified = Array.for_all (fun s -> s.verified) session_reports;
    wall_seconds = Unix.gettimeofday () -. started;
    counters = Metrics.counters metrics;
  }

let validate ~context ~config ~faults ~receivers ~loss ~sessions =
  if Array.exists (fun data -> Array.length data = 0) sessions || Array.length sessions = 0
  then Error.invalid_arg ~context "no data"
  else if not (loss >= 0.0 && loss < 1.0) then Error.invalid_arg ~context "loss outside [0,1)"
  else if
    Array.exists
      (fun data ->
        Array.exists (fun payload -> Bytes.length payload <> config.payload_size) data)
      sessions
  then Error.invalid_arg ~context "payload size mismatch"
  else if receivers < 1 then Error.invalid_arg ~context "need at least one receiver"
  else
    Result.bind
      (Option.fold ~none:(Ok ()) ~some:Fault.validate faults
      |> Result.map_error (Error.make ~context))
    @@ fun () ->
    (* The protocol rules, the payload bound among them, are the
       profile's; only the transport's own limits are checked here.  The
       kernel sends at most [max_frame] bytes per datagram, below the
       wire's own bound, so one packet's payload must also fit there. *)
    Result.bind (Profile.validate ~context (profile_of_config config)) @@ fun _ ->
    let max_payload = max_frame - Header.header_size in
    if config.payload_size > max_payload then
      Error.invalid_arg ~context
        (Printf.sprintf "payload_size must be <= %d to fit one %d-byte UDP datagram (got %d)"
           max_payload max_frame config.payload_size)
    else if Array.length sessions > 0x10000 then
      Error.invalid_arg ~context "too many sessions (wire sid is 16-bit)"
    else if Array.exists (fun data -> not (Np_replay.fits_wire ~k:config.k data)) sessions
    then Error.invalid_arg ~context "too many transmission groups (wire tg is 16-bit)"
    else Ok ()

(* --- entry points ------------------------------------------------------ *)

(* Contiguous balanced partition of [0, n) into [shards] slices, each as
   its first index and its length. *)
let shard_slices ~shards n =
  let q = n / shards and r = n mod shards in
  Array.init shards (fun shard -> ((shard * q) + min shard r, q + if shard < r then 1 else 0))

(* The one way into the engine.  One reactor per shard, each on its own
   domain; shard s runs its slice of the global session ids with its own
   seed offset.  One shard is the plain multi-session run: the run seed,
   identity sids, no domain spawned.  [scoped] puts each session's sender
   counters under [session.<sid>.]; {!run_local} leaves its one sender's
   counters flat.  [context] names the entry point in every [Error]. *)
let run ~context ~scoped ~tamper ?(config = default_config) ?metrics ?recorder ?faults
    ?(transport = `Unicast) ?(shards = 1) ~receivers ~loss ~seed ~sessions () =
  match validate ~context ~config ~faults ~receivers ~loss ~sessions with
  | Error _ as e -> e
  | Ok () when shards < 1 -> Error.invalid_arg ~context "need at least one shard"
  | Ok () when
      min shards (Array.length sessions) > 1
      && (Option.is_some recorder || Option.is_some faults) ->
    Error.invalid_arg ~context "recorder and faults are not domain-safe; they need a single shard"
  | Ok () ->
    let metrics = match metrics with Some m -> m | None -> Metrics.create () in
    let nsessions = Array.length sessions in
    let shards = min shards nsessions in
    let slices = shard_slices ~shards nsessions in
    (* Per-session sender counters keep their global sid scope; the flat
       udp/rx/tx counters are shared atomics, so shard totals sum. *)
    let sender_metrics sid =
      if scoped then Metrics.scope metrics (Printf.sprintf "session.%d" sid) else metrics
    in
    let run_shard shard =
      let first_sid, count = slices.(shard) in
      run_engine ~config ~metrics ~recorder ~faults ~tamper ~transport ~receivers
        ~loss ~seed:(seed + (shard * 16127))
        ~sessions:(Array.sub sessions first_sid count)
        ~first_sid ~sender_metrics
    in
    let spawned =
      Array.init (shards - 1) (fun i -> Domain.spawn (fun () -> run_shard (i + 1)))
    in
    let first = run_shard 0 in
    let shard_reports = Array.append [| first |] (Array.map Domain.join spawned) in
    let merged = Array.make nsessions first.session_reports.(0) in
    Array.iter
      (fun (r : multi_report) ->
        Array.iter (fun s -> merged.(s.session) <- s) r.session_reports)
      shard_reports;
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 shard_reports in
    Ok
      {
        receivers;
        session_reports = merged;
        naks_sent = sum (fun r -> r.naks_sent);
        naks_suppressed = sum (fun r -> r.naks_suppressed);
        datagrams_dropped = sum (fun r -> r.datagrams_dropped);
        decode_failures = sum (fun r -> r.decode_failures);
        all_verified = Array.for_all (fun s -> s.verified) merged;
        wall_seconds =
          Array.fold_left (fun acc r -> Float.max acc r.wall_seconds) 0.0 shard_reports;
        counters = Metrics.counters metrics;
      }

let run_multi = run ~context:"Udp_np.run_multi" ~scoped:true ~tamper:Fun.id

(* A single session: sid 0, so the wire ids are the plain TG indices. *)
let run_session ~tamper ?config ?metrics ?recorder ?faults ?transport ~receivers
    ~loss ~seed ~data () =
  run ~context:"Udp_np.run_local" ~scoped:false ~tamper ?config ?metrics ?recorder
    ?faults ?transport ~receivers ~loss ~seed ~sessions:[| data |] ()
  |> Result.map (fun (multi : multi_report) ->
         let s = multi.session_reports.(0) in
         {
           receivers;
           transmission_groups = s.transmission_groups;
           data_tx = s.data_tx;
           parity_tx = s.parity_tx;
           polls = s.polls;
           naks_sent = multi.naks_sent;
           naks_suppressed = multi.naks_suppressed;
           datagrams_dropped = multi.datagrams_dropped;
           decode_failures = multi.decode_failures;
           completed = s.completed;
           verified = s.verified;
           ejected = s.ejected;
           wall_seconds = multi.wall_seconds;
           counters = multi.counters;
         })

let run_local = run_session ~tamper:Fun.id

let run_local_exn ?config ?metrics ?recorder ?faults ?transport ~receivers ~loss
    ~seed ~data () =
  Error.get_exn
    (run_local ?config ?metrics ?recorder ?faults ?transport ~receivers ~loss ~seed
       ~data ())

module For_testing = struct
  let run_local ?config ~tamper ~receivers ~loss ~seed ~data () =
    Error.get_exn (run_session ~tamper ?config ~receivers ~loss ~seed ~data ())
end
