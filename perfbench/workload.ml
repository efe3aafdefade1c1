(* The three workloads: fixed protocol parameters, input generation from
   the seed, one transfer call through the public API, and the checks on
   its output.

   - udp_bulk: a file over loopback UDP (unicast fan-out) to 8 receivers,
     the only workload that reaches sockets, the reactor, the batched
     datapath and the UDP driver.
   - sim_exact_rlnc: one message to 500 receivers on the exact simulation
     tier with the RLNC codec; per packet one wire round-trip but 500
     machine receptions, so the codec and the machines dominate.
   - sim_aggregate: 10^6 receivers on the aggregate tier over a bursty
     channel at k = 100; count-vector thinning and the aggregate
     interpreter do the work, the codec runs only in the 64-machine
     cohort. *)

open Rmcast

type name = Udp_bulk | Sim_exact_rlnc | Sim_aggregate

let all = [ Udp_bulk; Sim_exact_rlnc; Sim_aggregate ]

let to_string = function
  | Udp_bulk -> "udp_bulk"
  | Sim_exact_rlnc -> "sim_exact_rlnc"
  | Sim_aggregate -> "sim_aggregate"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* --- parameters ---------------------------------------------------------- *)

let udp_receivers = 8
let udp_loss = 0.02

let udp_profile =
  {
    Profile.default_udp with
    k = 20;
    h = 40;
    proactive = 0;
    payload_size = 1024;
    pacing = 1e-6;
    slot = 0.002;
    codec = `Rse;
  }

let udp_config ?(session_timeout = 60.0) () =
  Udp_np.config_of_profile ~linger:0.005 ~session_timeout udp_profile

let exact_receivers = 500
let exact_loss = 0.01
let exact_profile = { Profile.default with k = 20; h = 40; proactive = 0; codec = `Rlnc }

let agg_population = 1_000_000
let agg_cohort = 64
let agg_loss = 0.01
let agg_mean_burst = 2.0
let agg_send_rate = 25.0

let agg_profile =
  {
    Profile.default with
    k = 100;
    h = 155;
    proactive = 0;
    codec = `Rse;
    pacing = 1.0 /. agg_send_rate;
  }

let agg_config = Np.config_of_profile agg_profile

(* Message bytes per transfer: whole TGs of 1024-byte payloads
   ([Transfer.packetize] adds a 4-byte length prefix on the exact tier).
   The traced run replays a capture that hex-encodes every reception, so
   it uses a shorter input of the same shape (same k, h, receivers,
   loss). *)
let message_bytes ~traced = function
  | Udp_bulk -> if traced then 20 * 1024 * 40 else 20 * 1024 * 200
  | Sim_exact_rlnc -> (20 * 1024 * if traced then 2 else 4) - 4
  | Sim_aggregate -> if traced then 100 * 1024 * 2 else 100 * 1024 * 5

(* The eq. 6 integrated-FEC bound on E[M] for the iid workloads, and the
   band a run's pooled E[M] must land in: at most [lower] below it (the
   sampling noise of a finite run, about 6 standard errors) and at most
   [upper] above it. *)
let em_gate = function
  | Udp_bulk ->
    Some (Endhost.np_mean_transmissions ~p:udp_loss ~k:20 ~receivers:udp_receivers, 0.01, 0.05)
  | Sim_exact_rlnc ->
    Some (Endhost.np_mean_transmissions ~p:exact_loss ~k:20 ~receivers:exact_receivers, 0.02, 0.05)
  | Sim_aggregate -> None

(* --- inputs -------------------------------------------------------------- *)

let sub_seed seed tag = Rng.derive_seed seed [| tag |]

let random_bytes rng n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_le b !i (Rng.bits64 rng);
    i := !i + 8
  done;
  while !i < n do
    Bytes.set b !i (Char.chr (Rng.int rng 256));
    incr i
  done;
  b

let payloads rng ~bytes ~size =
  Array.init ((bytes + size - 1) / size) (fun _ -> random_bytes rng size)

(* Build the codec's per-(k, h) state before the clock starts, as any
   long-lived sender would have: one repair packet, and one decode that
   needs it. *)
let warm_codec kind ~k ~h ~size =
  let codec = Codec.of_kind kind in
  let rng = Rng.create ~seed:7 () in
  let data = Array.init k (fun _ -> random_bytes rng size) in
  let sender = Fec_block.Sender.create ~codec ~h data in
  let receiver = Fec_block.Receiver.create ~codec ~k ~h in
  for i = 1 to k - 1 do
    ignore (Fec_block.Receiver.add receiver ~index:i data.(i))
  done;
  ignore (Fec_block.Receiver.add receiver ~index:k (Fec_block.Sender.parity sender 0));
  ignore (Fec_block.Receiver.decode receiver)

let cohort_network rng =
  Network.temporal rng ~receivers:agg_cohort ~make:(fun r ->
      Loss.markov2 r ~p:agg_loss ~mean_burst:agg_mean_burst ~send_rate:agg_send_rate)

let agg_channel = Aggregate.bursty ~p:agg_loss ~mean_burst:agg_mean_burst ~send_rate:agg_send_rate

(* --- one transfer -------------------------------------------------------- *)

type outcome = {
  bytes : int;  (** message bytes delivered to every receiver *)
  receivers : int;
  tgs : int;
  data_tx : int;
  parity_tx : int;
  naks : int;  (** NAKs sent, the aggregate tier's estimate included *)
  suppressed : int;
  virtual_naks : int;  (** aggregate-side NAK estimate (0 off the aggregate tier) *)
  failed : int;  (** receiver-transfers ejected, mismatched or timed out *)
  engine_events : int;  (** sim engine events (counted on traced sim runs only) *)
  counters : (string * int) list;  (** UDP driver counters *)
  gauges : (string * float) list;
}

let tx_per_packet o = float_of_int (o.data_tx + o.parity_tx) /. float_of_int o.data_tx
let naks_per_tg o = float_of_int o.naks /. float_of_int o.tgs

(* The protocol counts that must repeat exactly for a fixed seed on the
   sim tiers. *)
let signature o =
  Printf.sprintf "tgs=%d data=%d parity=%d naks=%d suppressed=%d" o.tgs o.data_tx o.parity_tx
    o.naks o.suppressed

let distinct_receivers pairs = List.length (List.sort_uniq compare (List.map fst pairs))

let base ~bytes ~receivers ~tgs ~data_tx ~parity_tx ~naks ~suppressed ~failed =
  {
    bytes;
    receivers;
    tgs;
    data_tx;
    parity_tx;
    naks;
    suppressed;
    virtual_naks = 0;
    failed;
    engine_events = 0;
    counters = [];
    gauges = [];
  }

let udp_outcome ~bytes ~metrics (r : Udp_np.report) =
  let failed =
    if r.completed < r.receivers then r.receivers - r.completed
    else if r.ejected <> [] then distinct_receivers r.ejected
    else if not r.verified then r.receivers
    else 0
  in
  {
    (base ~bytes ~receivers:r.receivers ~tgs:r.transmission_groups ~data_tx:r.data_tx
       ~parity_tx:r.parity_tx ~naks:r.naks_sent ~suppressed:r.naks_suppressed ~failed)
    with
    counters = r.counters;
    gauges = Metrics.gauges metrics;
  }

let np_outcome ~bytes (r : Np.report) =
  let failed =
    if r.ejected <> [] then distinct_receivers r.ejected
    else if not r.delivered_intact then r.receivers
    else 0
  in
  base ~bytes ~receivers:r.receivers ~tgs:r.transmission_groups ~data_tx:r.data_tx
    ~parity_tx:r.parity_tx ~naks:r.naks_sent ~suppressed:r.naks_suppressed ~failed

let agg_outcome ~bytes (r : Np_aggregate.report) =
  let remainder = r.population - r.cohort in
  let cohort_failed =
    if r.cohort_ejected <> [] then distinct_receivers r.cohort_ejected
    else if not r.delivered_intact then r.cohort
    else 0
  in
  {
    (base ~bytes ~receivers:r.population ~tgs:r.transmission_groups ~data_tx:r.data_tx
       ~parity_tx:r.parity_tx
       ~naks:(r.cohort_naks_sent + r.agg_naks_sent)
       ~suppressed:(r.cohort_naks_suppressed + r.agg_naks_suppressed)
       ~failed:(cohort_failed + (remainder - r.agg_complete)))
    with
    virtual_naks = r.agg_naks_sent;
  }

(* Drain a sim engine one event at a time (what [Mux.run] does in one
   call), counting the events. *)
let drain engine =
  let events = ref 0 in
  while Engine.step engine do
    incr events
  done;
  !events

(* A set-up transfer.  [transfer] runs it through the public API; with a
   [recorder] the sim tiers go through the [Mux] that [Transfer.send] and
   [Np_aggregate.run] wrap, so the capture can be attached, and count the
   engine's events.  [data] and [machine] are what the sender machine
   was built from; [damping id] rebuilds receiver [id]'s NAK damping
   source. *)
type prepared = {
  data : Bytes.t array;
  machine : Np_machine.config;
  damping : int -> unit -> float;
  transfer : ?recorder:Recorder.t -> unit -> outcome;
}

let machine_config ~k ~h ~proactive ~pre_encode ~slot ~codec =
  { Np_machine.k; h; proactive; pre_encode; slot; codec }

let shared_damping seed =
  let rng = Rng.create ~seed () in
  fun _ () -> Rng.float rng

(* Set up one transfer from [seed]: generate the inputs, build the
   network or population, warm the codec. *)
let setup ?(traced = false) ?session_timeout w ~seed =
  let bytes = message_bytes ~traced w in
  let input = Rng.create ~seed:(sub_seed seed 1) () in
  match w with
  | Udp_bulk ->
    let config = udp_config ?session_timeout () in
    let data = payloads input ~bytes ~size:config.payload_size in
    warm_codec config.codec ~k:config.k ~h:config.h ~size:config.payload_size;
    let run_seed = sub_seed seed 2 in
    {
      data;
      machine =
        machine_config ~k:config.k ~h:config.h ~proactive:config.proactive ~pre_encode:false
          ~slot:config.slot ~codec:config.codec;
      damping =
        (fun id ->
          let rng = Rng.create ~seed:(Udp_np.receiver_machine_seed ~seed:run_seed ~id) () in
          fun () -> Rng.float rng);
      transfer =
        (fun ?recorder () ->
          let metrics = Metrics.create () in
          Udp_np.run_local_exn ~config ~metrics ?recorder ~receivers:udp_receivers
            ~loss:udp_loss ~seed:run_seed ~data ()
          |> udp_outcome ~bytes ~metrics);
    }
  | Sim_exact_rlnc ->
    let message = Bytes.unsafe_to_string (random_bytes input bytes) in
    let network =
      Network.independent (Rng.create ~seed:(sub_seed seed 3) ()) ~receivers:exact_receivers
        ~p:exact_loss
    in
    let rng = Rng.create ~seed:(sub_seed seed 4) () in
    let config = Np.config_of_profile exact_profile in
    warm_codec config.codec ~k:config.k ~h:config.h ~size:config.payload_size;
    let data = Transfer.packetize ~payload_size:config.payload_size message in
    {
      data;
      machine =
        machine_config ~k:config.k ~h:config.h ~proactive:config.proactive
          ~pre_encode:config.pre_encode ~slot:config.slot ~codec:config.codec;
      damping = shared_damping (sub_seed seed 5);
      transfer =
        (fun ?recorder () ->
          match recorder with
          | None ->
            (Transfer.send_exn ~profile:exact_profile ~network ~rng message).Transfer.report
            |> np_outcome ~bytes
          | Some recorder ->
            let engine = Engine.create () in
            let mux = Np.Mux.create engine in
            let flow = Np.Mux.add_flow mux ~config ~recorder ~network ~rng ~data () in
            let engine_events = drain engine in
            { (np_outcome ~bytes (Np.Mux.report flow)) with engine_events });
    }
  | Sim_aggregate ->
    let data = payloads input ~bytes ~size:agg_config.payload_size in
    let network = cohort_network (Rng.create ~seed:(sub_seed seed 3) ()) in
    let rng = Rng.create ~seed:(sub_seed seed 4) () in
    let config = agg_config in
    warm_codec config.codec ~k:config.k ~h:config.h ~size:config.payload_size;
    {
      data;
      machine =
        machine_config ~k:config.k ~h:config.h ~proactive:config.proactive
          ~pre_encode:config.pre_encode ~slot:config.slot ~codec:config.codec;
      damping = shared_damping (sub_seed seed 5);
      transfer =
        (fun ?recorder () ->
          match recorder with
          | None ->
            Np_aggregate.run ~config ~cohort:agg_cohort ~channel:agg_channel
              ~population:agg_population ~network ~rng ~data ()
            |> agg_outcome ~bytes
          | Some recorder ->
            let engine = Engine.create () in
            let mux = Np_aggregate.Mux.create engine in
            let flow =
              Np_aggregate.Mux.add_flow mux ~config ~recorder ~cohort:agg_cohort
                ~channel:agg_channel ~population:agg_population ~network ~rng ~data ()
            in
            let engine_events = drain engine in
            { (agg_outcome ~bytes (Np_aggregate.Mux.report flow)) with engine_events });
    }

(* E[M] of a run inside the eq. 6 band on the iid workloads; returns the
   reasons it is not. *)
let em_check w em =
  match em_gate w with
  | None -> []
  | Some (bound, lower, upper) ->
    if em < bound *. (1.0 -. lower) || em > bound *. (1.0 +. upper) then
      [ Printf.sprintf "E[M] %.4f outside [%.4f, %.4f] around eq. 6 bound %.4f" em
          (bound *. (1.0 -. lower)) (bound *. (1.0 +. upper)) bound ]
    else []
