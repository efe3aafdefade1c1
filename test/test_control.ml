(* The control plane: Planner property tests, Controller behaviour, the
   sim tier's receiver churn, and the structured aggregate-tier admission
   errors — PR "closed-loop adaptive redundancy".

   The churn tests lean on the driver's RNG-stability contract: the loss
   process draws one fate per (transmission, receiver) whether or not the
   receiver is present, so membership changes perturb delivery and
   feedback, never the random stream of the receivers that stay. *)

module Planner = Rmcast.Planner
module Controller = Rmcast.Controller
module Np = Rmcast.Np
module Udp = Rmcast.Udp_np
module Recorder = Rmcast.Recorder
module Rng = Rmcast.Rng
module Network = Rmcast.Network
module Engine = Rmcast.Engine
module Profile = Rmcast.Profile

(* --- Planner properties ------------------------------------------------ *)

let forward_m ~p ~receivers =
  Rmcast.Arq.expected_transmissions
    ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers)

let qcheck_effective_receivers_monotone =
  QCheck.Test.make ~name:"effective_receivers monotone in measured E[M]" ~count:60
    QCheck.(
      triple (float_range 0.02 0.3) (float_range 1.0 2.5) (float_range 0.0 0.5))
    (fun (p, m, dm) ->
      Planner.effective_receivers ~measured_m_nofec:m ~p
      <= Planner.effective_receivers ~measured_m_nofec:(m +. dm) ~p)

let qcheck_effective_receivers_inverts_forward_model =
  (* Feeding the no-FEC forward model's own E[M] back through the inverse
     must recover the population (the bisection may land on either
     neighbour of a float-equal boundary, hence the +-1). *)
  QCheck.Test.make ~name:"effective_receivers inverts no-FEC E[M]" ~count:60
    QCheck.(pair (float_range 0.02 0.3) (int_range 1 5_000))
    (fun (p, receivers) ->
      let m = forward_m ~p ~receivers in
      abs (Planner.effective_receivers ~measured_m_nofec:m ~p - receivers) <= 1)

let qcheck_loss_estimate_bounds =
  QCheck.Test.make ~name:"loss_estimate lies in (0,1) and is monotone" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (a, b) ->
      let lost = min a b and total = max a b in
      let e = Planner.loss_estimate ~lost ~total in
      let e' = Planner.loss_estimate ~lost:(max 0 (lost - 1)) ~total in
      0.0 < e && e < 1.0 && e' <= e)

(* --- Controller -------------------------------------------------------- *)

let make_controller ?(kind = `Ewma) () =
  Controller.create ~kind ~k:8 ~h:24 ~proactive:4 ~receivers:16 ~pacing:1e-3 ()

(* Walk the controller through [tgs] observation windows; [need tg] is the
   worst round-1 NAK of that TG (0 = clean). *)
let feed controller ~tgs ~need =
  for tg = 0 to tgs - 1 do
    Controller.observe_poll controller ~tg ~k:8 ~size:12 ~round:1;
    let n = need tg in
    if n > 0 then Controller.observe_nak controller ~tg ~need:n ~round:1
  done

let test_static_never_moves () =
  let c = Controller.create ~kind:`Static ~k:8 ~h:24 ~proactive:4 ~receivers:16 ~pacing:1e-3 () in
  let initial = Controller.initial_decision c in
  feed c ~tgs:30 ~need:(fun tg -> if tg mod 2 = 0 then 5 else 0);
  Alcotest.(check bool) "decision is the initial one" true
    (Controller.decision_equal (Controller.decision c) initial);
  Alcotest.(check int) "no retunes counted" 0 (Controller.retunes c)

let test_ewma_relaxes_on_clean_channel () =
  let c = make_controller () in
  let initial = Controller.initial_decision c in
  feed c ~tgs:20 ~need:(fun _ -> 0);
  let d = Controller.decision c in
  Alcotest.(check bool) "samples accumulated" true (Controller.samples c >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "clean channel sheds proactive parities (%d < %d)"
       d.Controller.proactive initial.Controller.proactive)
    true
    (d.Controller.proactive < initial.Controller.proactive);
  Alcotest.(check bool) "p_hat decays toward zero" true (Controller.p_hat c < 0.05)

let test_ewma_reacts_to_loss () =
  let clean = make_controller () in
  feed clean ~tgs:20 ~need:(fun _ -> 0);
  let lossy = make_controller () in
  feed lossy ~tgs:20 ~need:(fun _ -> 4);
  Alcotest.(check bool) "loss raises the estimate" true
    (Controller.p_hat lossy > Controller.p_hat clean);
  Alcotest.(check bool) "loss raises proactive redundancy" true
    ((Controller.decision lossy).Controller.proactive
    > (Controller.decision clean).Controller.proactive)

let test_adaptive_budget_never_below_k () =
  (* Budget is reserve capacity: even on a spotless channel it must cover a
     fully-missed volley (a late joiner's catch-up). *)
  let c = make_controller () in
  feed c ~tgs:40 ~need:(fun _ -> 0);
  let d = Controller.decision c in
  Alcotest.(check bool)
    (Printf.sprintf "budget %d >= k" d.Controller.budget)
    true (d.Controller.budget >= 8);
  Alcotest.(check bool) "budget capped by h" true (d.Controller.budget <= 24)

(* --- Receiver churn (sim tier) ----------------------------------------- *)

let churn_config =
  { Np.default_config with k = 4; h = 12; payload_size = 64; spacing = 1e-3; slot = 0.01 }

let data ~packets seed =
  let rng = Rng.create ~seed () in
  Array.init packets (fun _ ->
      Bytes.init churn_config.Np.payload_size (fun _ -> Char.chr (Rng.int rng 256)))

let run_churn ?(config = churn_config) ?recorder ?(receivers = 4) ?(p = 0.1) ~seed ~churn
    ~packets () =
  let rng = Rng.create ~seed () in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  let mux = Np.Mux.create (Engine.create ()) in
  let flow =
    Np.Mux.add_flow mux ~config ?recorder ~churn ~network ~rng:(Rng.split rng)
      ~data:(data ~packets (seed + 1)) ()
  in
  Np.Mux.run mux;
  (mux, flow)

let test_leaver_excluded_survivors_delivered () =
  let churn = [ { Np.Mux.receiver = 1; at = 0.004; action = `Leave } ] in
  let _, flow = run_churn ~seed:31 ~churn ~packets:16 () in
  Alcotest.(check bool) "flow complete" true (Np.Mux.complete flow);
  Alcotest.(check bool) "leaver absent" false (Np.Mux.present flow ~receiver:1);
  let report = Np.Mux.report flow in
  Alcotest.(check bool) "survivors verified" true report.Np.delivered_intact;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "receiver %d finished" r)
        true
        (Np.Mux.completed_at flow ~receiver:r <> None))
    [ 0; 2; 3 ]

let test_late_joiner_catches_up_from_parity () =
  (* Receiver 2 joins only after the whole initial sweep: every TG it
     holds must come out of repair parities via the replayed polls. *)
  let churn = [ { Np.Mux.receiver = 2; at = 0.1; action = `Join } ] in
  let _, flow = run_churn ~seed:32 ~p:0.05 ~churn ~packets:8 () in
  Alcotest.(check bool) "flow complete" true (Np.Mux.complete flow);
  Alcotest.(check bool) "joiner present at the end" true (Np.Mux.present flow ~receiver:2);
  Alcotest.(check bool) "joiner delivered everything" true
    (Np.Mux.completed_at flow ~receiver:2 <> None);
  Alcotest.(check bool) "all present receivers verified" true
    (Np.Mux.report flow).Np.delivered_intact

let test_flapper_resumes () =
  let churn =
    [
      { Np.Mux.receiver = 0; at = 0.003; action = `Leave };
      { Np.Mux.receiver = 0; at = 0.08; action = `Join };
    ]
  in
  let _, flow = run_churn ~seed:33 ~p:0.05 ~churn ~packets:16 () in
  Alcotest.(check bool) "flow complete" true (Np.Mux.complete flow);
  Alcotest.(check bool) "flapper delivered" true
    (Np.Mux.completed_at flow ~receiver:0 <> None);
  Alcotest.(check bool) "verified" true (Np.Mux.report flow).Np.delivered_intact

let test_noop_churn_changes_nothing () =
  (* A Leave scheduled long after the transfer finishes never gates a
     delivery, so the run must be counter-identical to the churn-free
     baseline — evidence that the churn plumbing itself does not disturb
     the RNG streams (loss fates are drawn per transmission regardless of
     presence). *)
  let baseline = Np.Mux.report (snd (run_churn ~seed:34 ~churn:[] ~packets:16 ())) in
  let noop =
    Np.Mux.report
      (snd
         (run_churn ~seed:34
            ~churn:[ { Np.Mux.receiver = 0; at = 5.0; action = `Leave } ]
            ~packets:16 ()))
  in
  Alcotest.(check int) "data_tx" baseline.Np.data_tx noop.Np.data_tx;
  Alcotest.(check int) "parity_tx" baseline.Np.parity_tx noop.Np.parity_tx;
  Alcotest.(check int) "naks" baseline.Np.naks_sent noop.Np.naks_sent;
  Alcotest.(check bool) "verified" baseline.Np.delivered_intact noop.Np.delivered_intact

(* Most receivers absent at send time: 7 of 12 leave before the first
   packet, so every multicast skips more receivers than it reaches.  Only
   the present receivers take a packet, each multicast in ascending
   order: every POLL reaches exactly the present set, every DATA and
   PARITY a subset of it.  The counts are pinned. *)
let test_majority_absent () =
  let receivers = 12 and absent = [ 1; 2; 4; 5; 7; 8; 10 ] in
  let present = List.filter (fun r -> not (List.mem r absent)) (List.init receivers Fun.id) in
  let recorder = Recorder.create () in
  let churn = List.map (fun receiver -> { Np.Mux.receiver; at = 0.0; action = `Leave }) absent in
  let _, flow = run_churn ~recorder ~receivers ~seed:36 ~churn ~packets:16 () in
  Alcotest.(check bool) "flow complete" true (Np.Mux.complete flow);
  (* Each sender multicast's receivers, in the order they took it.  A
     sender packet is multicast once, so its body names it; two NAKs for
     the same round read alike, so a NAK is only checked to reach present
     receivers. *)
  let takers = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (e : Recorder.entry) ->
      if e.kind = Recorder.Event && e.actor.[0] = 'r' then begin
        let r = int_of_string (String.sub e.actor 1 (String.length e.actor - 1)) in
        Alcotest.(check bool) (e.actor ^ " is present") true (List.mem r present);
        match Rmcast.Np_machine.event_of_string e.body with
        | Ok (Rmcast.Np_machine.Packet_received (Rmcast.Header.Nak _)) -> ()
        | Ok (Rmcast.Np_machine.Packet_received message) ->
          if not (Hashtbl.mem takers e.body) then order := (e.body, message) :: !order;
          Hashtbl.replace takers e.body
            (r :: Option.value ~default:[] (Hashtbl.find_opt takers e.body))
        | _ -> ()
      end)
    (Recorder.entries recorder);
  let polls = ref 0 in
  List.iter
    (fun (body, message) ->
      let rs = List.rev (Hashtbl.find takers body) in
      Alcotest.(check (list int)) "each receiver once, ascending" (List.sort_uniq compare rs) rs;
      match message with
      | Rmcast.Header.Poll _ ->
        incr polls;
        Alcotest.(check (list int)) "a POLL reaches every present receiver" present rs
      | _ -> ())
    !order;
  let report = Np.Mux.report flow in
  Alcotest.(check bool) "POLLs seen" true (!polls > 0);
  Alcotest.(check bool) "present receivers verified" true report.Np.delivered_intact;
  Alcotest.(check string) "pinned duration" "0x1.f73c459992242p-4"
    (Printf.sprintf "%h" report.Np.duration);
  Alcotest.(check (list (pair string int)))
    "pinned counts"
    [
      ("data_tx", 16);
      ("parity_tx", 4);
      ("polls", 8);
      ("naks_sent", 8);
      ("naks_suppressed", 0);
      ("packets_decoded", 8);
      ("unnecessary", 10);
    ]
    [
      ("data_tx", report.Np.data_tx);
      ("parity_tx", report.Np.parity_tx);
      ("polls", report.Np.polls);
      ("naks_sent", report.Np.naks_sent);
      ("naks_suppressed", report.Np.naks_suppressed);
      ("packets_decoded", report.Np.packets_decoded);
      ("unnecessary", report.Np.unnecessary_receptions);
    ]

let test_churn_validation () =
  Alcotest.check_raises "out-of-range receiver"
    (Invalid_argument "Np.add_flow: churn receiver out of range") (fun () ->
      ignore
        (run_churn ~seed:35
           ~churn:[ { Np.Mux.receiver = 9; at = 0.1; action = `Leave } ]
           ~packets:4 ()));
  Alcotest.check_raises "event before start"
    (Invalid_argument "Np.add_flow: churn event before the flow starts") (fun () ->
      ignore
        (run_churn ~seed:35
           ~churn:[ { Np.Mux.receiver = 0; at = -0.1; action = `Leave } ]
           ~packets:4 ()))

(* --- Capture + replay of churning and adaptive runs -------------------- *)

let test_churn_capture_replays () =
  (* One receiver, so the sim flow's shared damping RNG maps onto the
     per-receiver seed model of Np_replay.  The receiver flaps: leaves
     mid-sweep, rejoins after the sweep, catches up from parity — and the
     whole thing must replay through the sans-IO core bit-for-bit. *)
  let seed = 77 in
  let machine_seed = 7_700 in
  let recorder = Recorder.create () in
  let payloads = data ~packets:12 seed in
  Rmcast.Np_replay.record_setup recorder
    ~config:(Rmcast.Np_replay.machine_config (Np.profile_of_config churn_config))
    ~payload_size:churn_config.Np.payload_size ~receivers:1 ~sessions:[| payloads |]
    ~rx_seeds:[| machine_seed |] ();
  let rng = Rng.create ~seed () in
  let network = Network.independent (Rng.split rng) ~receivers:1 ~p:0.1 in
  let mux = Np.Mux.create (Engine.create ()) in
  let churn =
    [
      { Np.Mux.receiver = 0; at = 0.003; action = `Leave };
      { Np.Mux.receiver = 0; at = 0.1; action = `Join };
    ]
  in
  let flow =
    Np.Mux.add_flow mux ~config:churn_config ~recorder ~churn ~network
      ~rng:(Rng.create ~seed:machine_seed ())
      ~data:payloads ()
  in
  Np.Mux.run mux;
  Alcotest.(check bool) "flow complete" true (Np.Mux.complete flow);
  match Rmcast.Np_replay.replay recorder with
  | Error e -> Alcotest.failf "churn capture unusable: %s" e
  | Ok outcome ->
    Alcotest.(check (option string)) "no divergence" None outcome.Rmcast.Np_replay.divergence;
    Alcotest.(check bool) "events replayed" true (outcome.Rmcast.Np_replay.events > 0)

let test_adaptive_udp_capture_replays () =
  (* An EWMA-controlled UDP run records its Retune events in the sender's
     stream, so replay is deterministic without re-running the controller. *)
  let config =
    {
      Udp.default_config with
      k = 4;
      h = 8;
      payload_size = 128;
      slot = 0.02;
      controller = `Ewma;
    }
  in
  let rng = Rng.create ~seed:91 () in
  let payloads =
    Array.init 20 (fun _ -> Bytes.init 128 (fun _ -> Char.chr (Rng.int rng 256)))
  in
  let recorder = Recorder.create () in
  let report =
    Udp.run_local_exn ~config ~recorder ~receivers:1 ~loss:0.3 ~seed:91 ~data:payloads ()
  in
  Alcotest.(check bool) "udp adaptive run verified" true report.Udp.verified;
  let retuned =
    List.exists
      (fun (e : Recorder.entry) ->
        e.Recorder.kind = Recorder.Event
        && String.length e.Recorder.body >= 7
        && String.sub e.Recorder.body 0 7 = "retune:")
      (Recorder.entries recorder)
  in
  Alcotest.(check bool) "controller retuned at 30% loss" true retuned;
  match Rmcast.Np_replay.replay recorder with
  | Error e -> Alcotest.failf "adaptive capture unusable: %s" e
  | Ok outcome ->
    Alcotest.(check (option string)) "no divergence" None outcome.Rmcast.Np_replay.divergence

(* --- Structured aggregate-tier admission -------------------------------- *)

let test_aggregate_rejects_rateless_structured () =
  let config = { Np.default_config with codec = `Rlnc } in
  match Rmcast.Np_aggregate.check_config config with
  | Ok () -> Alcotest.fail "rateless codec accepted"
  | Error e ->
    Alcotest.(check string) "exact message"
      "Np_aggregate: the aggregate tier models receivers by reception count, which \
       requires an MDS block codec (rse or cauchy)"
      (Rmcast.Error.to_string e)

let test_aggregate_rejects_adaptive_structured () =
  let config = { Np.default_config with controller = `Ewma } in
  match Rmcast.Np_aggregate.check_config config with
  | Ok () -> Alcotest.fail "adaptive controller accepted"
  | Error e ->
    Alcotest.(check string) "exact message"
      "Np_aggregate: the aggregate tier holds the remainder as a count-vector \
       population and cannot interpret ewma retunes; use the exact tier or \
       --controller static"
      (Rmcast.Error.to_string e);
    (* The raising entry point surfaces the identical string. *)
    let engine = Engine.create () in
    let mux = Rmcast.Np_aggregate.Mux.create engine in
    let rng = Rng.create ~seed:3 () in
    let network = Network.independent (Rng.split rng) ~receivers:1 ~p:0.0 in
    Alcotest.check_raises "add_flow raises the same text"
      (Invalid_argument (Rmcast.Error.to_string e)) (fun () ->
        ignore
          (Rmcast.Np_aggregate.Mux.add_flow mux ~config ~cohort:1 ~population:1 ~network
             ~rng:(Rng.split rng)
             ~data:[| Bytes.create config.Np.payload_size |]
             ()))

let test_aggregate_accepts_static_block () =
  List.iter
    (fun codec ->
      Alcotest.(check bool) "accepted" true
        (Rmcast.Np_aggregate.check_config { Np.default_config with codec } = Ok ()))
    [ `Rse; `Cauchy ]

let test_profile_rejects_adaptive_without_budget () =
  let profile = { Profile.default with h = 0; proactive = 0; controller = `Ewma } in
  match Profile.validate profile with
  | Ok _ -> Alcotest.fail "adaptive profile with h = 0 accepted"
  | Error e ->
    Alcotest.(check string) "exact message"
      "Profile: an adaptive controller (ewma) needs a repair budget to retune (h = 0)"
      (Rmcast.Error.to_string e)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_effective_receivers_monotone;
    QCheck_alcotest.to_alcotest qcheck_effective_receivers_inverts_forward_model;
    QCheck_alcotest.to_alcotest qcheck_loss_estimate_bounds;
    Alcotest.test_case "static controller never moves" `Quick test_static_never_moves;
    Alcotest.test_case "ewma relaxes on a clean channel" `Quick
      test_ewma_relaxes_on_clean_channel;
    Alcotest.test_case "ewma reacts to loss" `Quick test_ewma_reacts_to_loss;
    Alcotest.test_case "adaptive budget never below k" `Quick
      test_adaptive_budget_never_below_k;
    Alcotest.test_case "leaver excluded, survivors delivered" `Quick
      test_leaver_excluded_survivors_delivered;
    Alcotest.test_case "late joiner catches up from parity" `Quick
      test_late_joiner_catches_up_from_parity;
    Alcotest.test_case "flapper resumes" `Quick test_flapper_resumes;
    Alcotest.test_case "no-op churn changes nothing" `Quick test_noop_churn_changes_nothing;
    Alcotest.test_case "majority absent at send time" `Quick test_majority_absent;
    Alcotest.test_case "churn validation" `Quick test_churn_validation;
    Alcotest.test_case "churn capture replays" `Quick test_churn_capture_replays;
    Alcotest.test_case "adaptive udp capture replays" `Quick
      test_adaptive_udp_capture_replays;
    Alcotest.test_case "aggregate rejects rateless (structured)" `Quick
      test_aggregate_rejects_rateless_structured;
    Alcotest.test_case "aggregate rejects adaptive (structured)" `Quick
      test_aggregate_rejects_adaptive_structured;
    Alcotest.test_case "aggregate accepts static block codecs" `Quick
      test_aggregate_accepts_static_block;
    Alcotest.test_case "profile rejects adaptive without budget" `Quick
      test_profile_rejects_adaptive_without_budget;
  ]
