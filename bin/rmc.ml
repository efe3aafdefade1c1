(* rmc — command-line front end to the rmcast library.

   Subcommands:
     analyze   closed-form E[M] for a scheme (paper §3)
     sweep     E[M] series over the receiver count (CSV-able)
     simulate  Monte-Carlo estimate over a simulated network
     plan      adaptive redundancy planning (proactive parities + budget)
     endhost   §5 processing rates and throughput (N2 vs NP)
     codec     file-level FEC: encode a file into packets, decode with drops
     latency   expected completion time of the schemes
     feedback  NAK volume under slotting and damping
     capacity  largest group each protocol can serve
     transfer  run a full NP transfer over a simulated network
     serve     run N concurrent sessions over one engine (sim or UDP)
     replay    re-execute a captured UDP run through the sans-IO core
     trace     record and inspect packet-loss traces

   The model commands (analyze, sweep, simulate, plan, endhost, latency,
   feedback, capacity and codec encode) take the paper's operating point
   k = 7, h = 1.  The commands that run a transfer (transfer, serve) take
   one profile term over {!Rmcast.Profile.default}. *)

open Cmdliner

(* --- shared options -------------------------------------------------- *)

let k_opt default =
  Arg.(value & opt int default & info [ "k"; "tg-size" ] ~docv:"K" ~doc:"Transmission group size.")

let h_opt default =
  Arg.(value & opt int default & info [ "parities" ] ~docv:"H" ~doc:"Parity packets per group.")

let a_opt default =
  Arg.(value & opt int default & info [ "proactive" ] ~docv:"A" ~doc:"Proactive parity packets.")

let payload_opt default =
  Arg.(value & opt int default & info [ "payload" ] ~docv:"BYTES" ~doc:"Packet payload size.")

let k_arg = k_opt 7
let h_arg = h_opt 1
let a_arg = a_opt 0

let p_arg =
  Arg.(value & opt float 0.01 & info [ "p"; "loss" ] ~docv:"P" ~doc:"Packet loss probability.")

let receivers_arg =
  Arg.(value & opt int 1000 & info [ "r"; "receivers" ] ~docv:"R" ~doc:"Number of receivers.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains to run the work on. Results are independent of N: grid cells and \
           replication chunks derive their seeds from their coordinates, never from \
           the schedule, so any job count produces identical output.")

let scheme_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "no-fec" | "nofec" | "arq" -> Ok `No_fec
    | "layered" -> Ok `Layered
    | "integrated" -> Ok `Integrated
    | "integrated-bound" | "bound" -> Ok `Integrated_bound
    | other -> Error (`Msg (Printf.sprintf "unknown scheme %S" other))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
      | `No_fec -> "no-fec"
      | `Layered -> "layered"
      | `Integrated -> "integrated"
      | `Integrated_bound -> "integrated-bound")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Integrated_bound
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:"Recovery scheme: no-fec, layered, integrated (finite h), integrated-bound.")

let codec_arg =
  let parse s =
    match Rmcast.Profile.codec_of_string (String.lowercase_ascii s) with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown codec %S (rse, cauchy, rlnc, lt)" s))
  in
  let print ppf c = Format.pp_print_string ppf (Rmcast.Profile.codec_to_string c) in
  Arg.(
    value
    & opt (conv (parse, print)) `Rse
    & info [ "codec" ] ~docv:"CODEC"
        ~doc:
          "Erasure codec for repair packets: $(i,rse) (default), $(i,cauchy) (both MDS \
           block codes), $(i,rlnc) or $(i,lt) (rateless).")

let controller_arg =
  let parse s =
    match Rmcast.Profile.controller_of_string (String.lowercase_ascii s) with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown controller %S (static, ewma, gilbert)" s))
  in
  let print ppf c = Format.pp_print_string ppf (Rmcast.Profile.controller_to_string c) in
  Arg.(
    value
    & opt (conv (parse, print)) `Static
    & info [ "controller" ] ~docv:"CONTROLLER"
        ~doc:
          "Redundancy control plane: $(i,static) (default; the construction-time plan, \
           bit-exact with the pre-control-plane behaviour), $(i,ewma) (EWMA loss \
           estimator retunes proactive parities and budget online), or $(i,gilbert) \
           (burst-aware: inflates the proactive tail from the measured loss-run \
           dispersion).")

(* The parameters of one run, over the library's default profile. *)
let profile_term =
  let d = Rmcast.Profile.default in
  let make k h proactive payload_size codec controller =
    { d with k; h; proactive; payload_size; codec; controller }
  in
  Term.(
    const make $ k_opt d.k $ h_opt d.h $ a_opt d.proactive $ payload_opt d.payload_size
    $ codec_arg $ controller_arg)

(* Churn specs: comma-separated "join:RX@T" / "leave:RX@T" events, e.g.
   "leave:2@0.5,join:5@1.2,join:2@2.0" (receiver 2 flaps, receiver 5 is a
   late joiner). *)
let churn_of_string spec =
  let parse_event item =
    match String.index_opt item ':' with
    | None -> Error (Printf.sprintf "%S: expected join:RX@T or leave:RX@T" item)
    | Some colon -> (
      let action =
        match String.sub item 0 colon with
        | "join" -> Ok `Join
        | "leave" -> Ok `Leave
        | other -> Error (Printf.sprintf "%S: unknown action %S" item other)
      in
      match action with
      | Error _ as e -> e
      | Ok action -> (
        let rest = String.sub item (colon + 1) (String.length item - colon - 1) in
        match String.index_opt rest '@' with
        | None -> Error (Printf.sprintf "%S: missing @TIME" item)
        | Some at_sign -> (
          let rx = String.sub rest 0 at_sign in
          let time = String.sub rest (at_sign + 1) (String.length rest - at_sign - 1) in
          match (int_of_string_opt rx, float_of_string_opt time) with
          | Some receiver, Some at when receiver >= 0 && at >= 0.0 ->
            Ok { Rmcast.Np.Mux.receiver; at; action }
          | _ -> Error (Printf.sprintf "%S: bad receiver or time" item))))
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
      match parse_event item with
      | Error _ as e -> e
      | Ok ev -> collect (ev :: acc) rest)
  in
  collect [] (String.split_on_char ',' spec)

let churn_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "churn" ] ~docv:"SPEC"
        ~doc:
          "Receiver membership churn: comma-separated $(i,join:RX@T) / \
           $(i,leave:RX@T) events in virtual seconds, e.g. \
           leave:2@0.5,join:5@1.2,join:2@2.0. A receiver whose earliest \
           event is a join starts absent and catches up from parity repair.")

let high_loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "high-loss-fraction" ] ~docv:"F"
        ~doc:"Fraction of receivers at 25% loss (paper §3.3).")

let population ~p ~receivers ~high_fraction =
  if high_fraction > 0.0 then
    Rmcast.Receivers.two_class ~p_low:p ~p_high:0.25 ~high_fraction ~count:receivers
  else Rmcast.Receivers.homogeneous ~p ~count:receivers

let expected_m scheme ~k ~h ~a ~population =
  match scheme with
  | `No_fec -> Rmcast.Arq.expected_transmissions ~population
  | `Layered -> Rmcast.Layered.expected_transmissions ~k ~h ~population
  | `Integrated -> Rmcast.Integrated.expected_transmissions ~k ~h ~a ~population ()
  | `Integrated_bound -> Rmcast.Integrated.expected_transmissions_unbounded ~k ~a ~population ()

(* The library rejects out-of-range parameters with [Invalid_argument];
   report that as a usage error (exit 124), not an internal one. *)
let usage_errors f = try f () with Invalid_argument msg -> `Error (false, msg)

(* --- analyze --------------------------------------------------------- *)

let analyze scheme k h a p receivers high_fraction =
  usage_errors @@ fun () ->
  let population = population ~p ~receivers ~high_fraction in
  let m = expected_m scheme ~k ~h ~a ~population in
  Printf.printf "E[M] = %.6f transmissions per data packet\n" m;
  (match scheme with
  | `Layered ->
    Printf.printf "RM-layer residual loss q(k,n,p) = %.3e (raw p = %g)\n"
      (Rmcast.Layered.rm_loss_probability ~k ~h ~p) p
  | `Integrated_bound | `Integrated ->
    Printf.printf "expected extra parities E[L] = %.4f, P(no repair round) = %.4f\n"
      (Rmcast.Integrated.expected_extra ~k ~a ~population)
      (Rmcast.Integrated.group_extra_cdf ~k ~a ~population 0)
  | `No_fec -> ());
  `Ok ()

let analyze_cmd =
  let doc = "Closed-form expected transmissions per packet (paper §3)." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      ret (const analyze $ scheme_arg $ k_arg $ h_arg $ a_arg $ p_arg $ receivers_arg
           $ high_loss_arg))

(* --- sweep ----------------------------------------------------------- *)

let sweep scheme k h a p high_fraction upto csv jobs =
  usage_errors @@ fun () ->
  let grid = Rmcast.Sweep.log_spaced_ints ~from:1 ~upto ~per_decade:4 in
  (* The cells are analytic (pure in the receiver count), so sharding them
     across domains cannot change the series. *)
  let series =
    Rmcast.Sweep.series_cells ?jobs ~seed:0 ~label:"E[M]" ~xs:grid
      ~f:(fun ~seed:_ receivers ->
        ( float_of_int receivers,
          expected_m scheme ~k ~h ~a ~population:(population ~p ~receivers ~high_fraction) ))
      ()
  in
  if csv then print_string (Rmcast.Sweep.to_csv [ series ])
  else Format.printf "%a@." Rmcast.Sweep.pp_table [ series ];
  `Ok ()

let sweep_cmd =
  let upto =
    Arg.(value & opt int 1_000_000 & info [ "to" ] ~docv:"R" ~doc:"Largest receiver count.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  let doc = "E[M] versus the number of receivers." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      ret (const sweep $ scheme_arg $ k_arg $ h_arg $ a_arg $ p_arg $ high_loss_arg $ upto $ csv
           $ jobs_arg))

(* --- simulate -------------------------------------------------------- *)

let simulate scheme k h a p receivers seed reps fbt_height burst tier codec jobs =
  (* The TG tiers have no finite parity budget: the integrated scheme they
     run is the analysis' n = infinity bound. *)
  if scheme = `Integrated then
    `Error
      ( false,
        "simulate runs an unbounded parity supply, so --parities has no effect on \
         --scheme integrated; use --scheme integrated-bound (the default), or rmc \
         transfer for a finite budget" )
  else
  usage_errors @@ fun () ->
  let runner_scheme =
    match scheme with
    | `No_fec -> Rmcast.Runner.No_fec
    | `Layered -> Rmcast.Runner.Layered { h }
    | `Integrated | `Integrated_bound -> Rmcast.Runner.Integrated_nak { a; codec }
  in
  let print_estimate ~network_description estimate =
    let mean = Rmcast.Runner.mean_m estimate in
    let low, high =
      Rmcast.Stats.Accumulator.confidence95 estimate.Rmcast.Runner.transmissions_per_packet
    in
    Printf.printf "network: %s\n" network_description;
    Printf.printf "scheme : %s, k = %d, %d repetitions\n"
      (Rmcast.Runner.scheme_name runner_scheme) k reps;
    Printf.printf "E[M]   = %.4f   (95%% CI %.4f - %.4f)\n" mean low high;
    Printf.printf "rounds = %.3f, NAKs/TG = %.3f, unnecessary receptions/receiver/TG = %.4f\n"
      (Rmcast.Stats.Accumulator.mean estimate.Rmcast.Runner.rounds)
      (Rmcast.Stats.Accumulator.mean estimate.Rmcast.Runner.feedback)
      (Rmcast.Stats.Accumulator.mean estimate.Rmcast.Runner.unnecessary_per_receiver)
  in
  (* Without --jobs, one RNG drives the whole run — byte-identical to the
     historical sequential behaviour.  With --jobs N, the repetitions are
     split into fixed 100-rep chunks (a partition independent of N), each
     chunk runs with a seed derived from (seed, chunk index) on its own
     domain, and the per-chunk moments merge in index order — so any N,
     including 1, produces identical output. *)
  let chunked estimate_with =
    match jobs with
    | None -> estimate_with (Rmcast.Rng.create ~seed ()) reps
    | Some jobs ->
      let chunk_reps = 100 in
      let chunks = max 1 ((reps + chunk_reps - 1) / chunk_reps) in
      let estimates =
        Rmcast.Sweep.run_cells ~jobs ~seed
          ~f:(fun ~seed chunk ->
            let reps = min chunk_reps (reps - (chunk * chunk_reps)) in
            estimate_with (Rmcast.Rng.create ~seed ()) reps)
          (Array.init chunks (fun chunk -> chunk))
      in
      Array.fold_left Rmcast.Runner.merge estimates.(0)
        (Array.sub estimates 1 (Array.length estimates - 1))
  in
  match tier with
  | `Exact ->
    let make_network rng =
      match (fbt_height, burst) with
      | Some height, _ -> (Rmcast.Network.fbt rng ~height ~p, Rmcast.Timing.instantaneous)
      | None, Some mean_burst ->
        ( Rmcast.Network.temporal rng ~receivers ~make:(fun rng ->
              Rmcast.Loss.markov2 rng ~p ~mean_burst ~send_rate:25.0),
          Rmcast.Timing.paper_burst )
      | None, None ->
        (Rmcast.Network.independent rng ~receivers ~p, Rmcast.Timing.instantaneous)
    in
    let network_description =
      Rmcast.Network.description (fst (make_network (Rmcast.Rng.create ~seed ())))
    in
    let estimate =
      chunked (fun rng reps ->
          let network, timing = make_network rng in
          Rmcast.Runner.estimate network ~k ~scheme:runner_scheme ~timing ~reps ())
    in
    print_estimate ~network_description estimate;
    `Ok ()
  | `Aggregate -> (
    match fbt_height with
    | Some _ ->
      `Error
        ( false,
          "--tier aggregate requires loss to be iid across receivers; shared-loss trees \
           (--fbt-height) need the exact tier" )
    | None -> (
      (* The same admission rule the aggregate interpreter itself applies,
         so rmc simulate / transfer / serve all surface one message. *)
      match
        (runner_scheme, Rmcast.Np_aggregate.check_config { Rmcast.Np.default_config with codec })
      with
      | (Rmcast.Runner.No_fec | Rmcast.Runner.Layered _ | Rmcast.Runner.Carousel _), _ ->
        `Error (false, "--tier aggregate only models the integrated schemes")
      | _, Error e -> `Error (false, Rmcast.Error.to_string e)
      | (Rmcast.Runner.Integrated_nak _ | Rmcast.Runner.Integrated_open_loop _), Ok () ->
        let channel, timing =
          match burst with
          | Some mean_burst ->
            ( Rmcast.Aggregate.bursty ~p ~mean_burst ~send_rate:25.0,
              Rmcast.Timing.paper_burst )
          | None -> (Rmcast.Aggregate.bernoulli ~p, Rmcast.Timing.instantaneous)
        in
        let estimate =
          chunked (fun rng reps ->
              Rmcast.Tg_aggregate.estimate rng ~receivers ~channel ~k
                ~scheme:runner_scheme ~timing ~reps ())
        in
        let network_description =
          Printf.sprintf "aggregate population, %d receivers, %s" receivers
            (Rmcast.Aggregate.channel_description channel)
        in
        print_estimate ~network_description estimate;
        `Ok ()))

let simulate_cmd =
  let reps = Arg.(value & opt int 200 & info [ "reps" ] ~docv:"N" ~doc:"Repetitions.") in
  let fbt =
    Arg.(
      value & opt (some int) None
      & info [ "fbt-height" ] ~docv:"D" ~doc:"Use a full binary tree of height D (shared loss).")
  in
  let burst =
    Arg.(
      value & opt (some float) None
      & info [ "burst" ] ~docv:"B" ~doc:"Bursty (Markov) loss with mean burst B packets.")
  in
  let tier =
    Arg.(
      value
      & opt (enum [ ("exact", `Exact); ("aggregate", `Aggregate) ]) `Exact
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            "Simulation tier: $(b,exact) walks every receiver per packet; \
             $(b,aggregate) evolves a count-vector population in O(k) per packet \
             (iid loss, integrated schemes only) and reaches R = 10^6.")
  in
  let doc = "Monte-Carlo estimate over a simulated network (paper §4)." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret (const simulate $ scheme_arg $ k_arg $ h_arg $ a_arg $ p_arg $ receivers_arg
           $ seed_arg $ reps $ fbt $ burst $ tier $ codec_arg $ jobs_arg))

(* --- plan ------------------------------------------------------------ *)

let plan k p receivers target measured_m =
  usage_errors @@ fun () ->
  if p <= 0.0 || p >= 1.0 then `Error (false, "--p must lie in (0,1) for planning")
  else begin
    let effective =
      match measured_m with
      | None -> receivers
      | Some m -> Rmcast.Planner.effective_receivers ~measured_m_nofec:m ~p
    in
    let plan = Rmcast.Planner.plan ~k ~p ~receivers:effective ~target_single_round:target () in
    (match measured_m with
    | None -> Printf.printf "k = %d, p = %g, R = %d:\n" k p receivers
    | Some m ->
      Printf.printf "k = %d, p = %g, R = %d:\n" k p receivers;
      Printf.printf
        "  effective R             = %d (independent population whose no-FEC E[M] \
         matches the measured %g; paper §4.1 inverted)\n"
        effective m);
    Printf.printf "  proactive parities (a)  = %d\n" plan.Rmcast.Planner.proactive;
    Printf.printf "  parity budget (h)       = %d\n" plan.Rmcast.Planner.budget;
    Printf.printf "  predicted E[M]          = %.4f\n" plan.Rmcast.Planner.expected_m;
    Printf.printf "  P(no repair round)      = %.4f\n"
      plan.Rmcast.Planner.single_round_probability;
    `Ok ()
  end

let plan_cmd =
  let target =
    Arg.(
      value & opt float 0.9
      & info [ "target" ] ~docv:"Q" ~doc:"Target probability of single-round delivery.")
  in
  let measured_m =
    Arg.(
      value
      & opt (some float) None
      & info [ "measured-m" ] ~docv:"M"
          ~doc:
            "Measured no-FEC transmissions-per-packet. When given, the plan is drawn for \
             the $(i,effective) receiver count whose independent-loss E[M] matches M \
             (paper §4.1 inverted) instead of the raw $(b,--receivers) — the antidote to \
             over-provisioning under spatially correlated loss.")
  in
  let doc = "Choose proactive parities and parity budget for a population." in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(ret (const plan $ k_arg $ p_arg $ receivers_arg $ target $ measured_m))

(* --- endhost --------------------------------------------------------- *)

let endhost k p receivers =
  usage_errors @@ fun () ->
  let n2 = Rmcast.Endhost.n2 ~p ~receivers () in
  let np = Rmcast.Endhost.np ~p ~k ~receivers () in
  let np_pre = Rmcast.Endhost.np ~pre_encoded:true ~p ~k ~receivers () in
  let show name (rates : Rmcast.Endhost.rates) =
    Printf.printf "  %-16s sender %8.4f  receiver %8.4f  throughput %8.4f\n" name
      (rates.Rmcast.Endhost.sender /. 1000.0)
      (rates.Rmcast.Endhost.receiver /. 1000.0)
      (rates.Rmcast.Endhost.throughput /. 1000.0)
  in
  Printf.printf "End-host model (packets/ms), k = %d, p = %g, R = %d:\n" k p receivers;
  show "N2" n2;
  show "NP" np;
  show "NP pre-encoded" np_pre;
  `Ok ()

let endhost_cmd =
  let doc = "Processing rates and throughput of N2 vs NP (paper §5)." in
  Cmd.v (Cmd.info "endhost" ~doc) Term.(ret (const endhost $ k_arg $ p_arg $ receivers_arg))

(* --- codec ----------------------------------------------------------- *)

let payload_arg = payload_opt 1024

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let codec_encode input output k h payload_size =
  if k < 1 then `Error (false, "-k must be >= 1")
  else
  usage_errors @@ fun () ->
  let contents = read_file input in
  let packets = Rmcast.Transfer.packetize ~payload_size contents in
  let buffer = Buffer.create (Array.length packets * (payload_size + 32)) in
  let tg_count = (Array.length packets + k - 1) / k in
  for tg_id = 0 to tg_count - 1 do
    let base = tg_id * k in
    let len = min k (Array.length packets - base) in
    let data = Array.sub packets base len in
    let codec = Rmcast.Rse.create ~k:len ~h () in
    Array.iteri
      (fun index payload ->
        Buffer.add_bytes buffer
          (Rmcast.Header.encode (Rmcast.Header.Data { tg_id; k = len; index; payload })))
      data;
    Array.iteri
      (fun index payload ->
        Buffer.add_bytes buffer
          (Rmcast.Header.encode
             (Rmcast.Header.Parity { tg_id; k = len; index; round = 0; payload })))
      (Rmcast.Rse.encode codec data)
  done;
  write_file output (Buffer.contents buffer);
  Printf.printf "%s: %d bytes -> %s: %d packets in %d TGs (k=%d, h=%d)\n" input
    (String.length contents) output
    (Array.length packets + (tg_count * h))
    tg_count k h;
  `Ok ()

(* Walk a container the way the transport walks a coalesced frame: each
   message is delimited by its own header. *)
let parse_container contents =
  let buf = Bytes.unsafe_of_string contents in
  let len = Bytes.length buf in
  let rec walk off acc =
    if off >= len then Ok (List.rev acc)
    else
      let corrupt reason =
        Error (Printf.sprintf "corrupt container at byte %d: %s" off reason)
      in
      match Rmcast.Header.frame_length buf ~off ~len:(len - off) with
      | Error reason -> corrupt reason
      | Ok frame -> (
        match Rmcast.Header.decode_slice buf ~off ~len:frame with
        | Error reason -> corrupt reason
        | Ok message -> walk (off + frame) (message :: acc))
  in
  walk 0 []

(* Rebuild every TG through the receiver-side FEC block: a duplicate is a
   no-op and [complete] decides recoverability.  A TG's generator only
   needs rows up to the highest repair index the container holds. *)
let recover_tgs ~payload_size messages =
  let module Block = Rmcast.Fec_block.Receiver in
  let groups = Hashtbl.create 16 in
  let push tg_id k index payload =
    let entries = Option.value ~default:[] (Hashtbl.find_opt groups tg_id) in
    Hashtbl.replace groups tg_id ((k, index, payload) :: entries)
  in
  List.iter
    (function
      | Rmcast.Header.Data { tg_id; k; index; payload } -> push tg_id k index payload
      | Rmcast.Header.Parity { tg_id; k; index; round = _; payload } ->
        push tg_id k (k + index) payload
      | Rmcast.Header.Poll _ | Rmcast.Header.Nak _ | Rmcast.Header.Exhausted _ -> ())
    messages;
  let recover tg_id =
    let fail fmt =
      Printf.ksprintf (fun reason -> Error (Printf.sprintf "TG %d %s" tg_id reason)) fmt
    in
    match List.rev (Option.value ~default:[] (Hashtbl.find_opt groups tg_id)) with
    | [] -> fail "unrecoverable: no packets"
    | (k, _, _) :: _ as entries ->
      if List.exists (fun (k', _, _) -> k' <> k) entries then fail "mixes TG sizes"
      else if List.exists (fun (_, _, payload) -> Bytes.length payload <> payload_size) entries
      then fail "size mismatch: packets are not --payload %d bytes" payload_size
      else
        let h = List.fold_left (fun acc (_, index, _) -> max acc (index - k + 1)) 0 entries in
        let block = Block.create ~codec:(Rmcast.Codec.of_kind `Rse) ~k ~h in
        List.iter (fun (_, index, payload) -> ignore (Block.add block ~index payload)) entries;
        if Block.complete block then Ok (Block.decode block)
        else fail "unrecoverable: %d of %d packets" (Block.received block) k
  in
  let tgs = 1 + Hashtbl.fold (fun tg_id _ acc -> max tg_id acc) groups (-1) in
  let rec collect tg_id acc =
    if tg_id >= tgs then Ok (tgs, Array.concat (List.rev acc))
    else Result.bind (recover tg_id) (fun data -> collect (tg_id + 1) (data :: acc))
  in
  collect 0 []

let codec_decode input output payload_size drop_rate seed =
  usage_errors @@ fun () ->
  match parse_container (read_file input) with
  | Error message -> `Error (false, message)
  | Ok messages -> (
    let rng = Rmcast.Rng.create ~seed () in
    let kept, dropped =
      List.partition (fun _ -> not (Rmcast.Rng.bernoulli rng drop_rate)) messages
    in
    Printf.printf "container: %d packets, dropped %d (rate %g)\n" (List.length messages)
      (List.length dropped) drop_rate;
    match recover_tgs ~payload_size kept with
    | Error message -> `Error (false, message)
    | Ok (tgs, packets) ->
      write_file output (Rmcast.Transfer.reassemble ~payload_size packets);
      Printf.printf "recovered %d TGs -> %s\n" tgs output;
      `Ok ())

let codec_encode_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT") in
  let doc = "Encode a file into a container of data + parity packets." in
  Cmd.v
    (Cmd.info "encode" ~doc)
    Term.(ret (const codec_encode $ input $ output $ k_arg $ h_arg $ payload_arg))

let codec_decode_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT") in
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"RATE" ~doc:"Random packet drop rate.")
  in
  let doc = "Decode a container back into the original file, tolerating drops." in
  Cmd.v
    (Cmd.info "decode" ~doc)
    Term.(ret (const codec_decode $ input $ output $ payload_arg $ drop $ seed_arg))

let codec_cmd =
  let doc = "File-level FEC using the wire format." in
  Cmd.group (Cmd.info "codec" ~doc) [ codec_encode_cmd; codec_decode_cmd ]

(* --- transfer -------------------------------------------------------- *)

let transfer profile p receivers seed bytes churn_spec =
  match Option.fold ~none:(Ok []) ~some:churn_of_string churn_spec with
  | Error message -> `Error (false, "--churn: " ^ message)
  | Ok churn -> (
    let rng = Rmcast.Rng.create ~seed () in
    let network = Rmcast.Network.independent (Rmcast.Rng.split rng) ~receivers ~p in
    let message = String.init bytes (fun i -> Char.chr ((i * 37) mod 256)) in
    match
      Rmcast.Transfer.send ~profile ~churn ~network ~rng:(Rmcast.Rng.split rng) message
    with
    | Error e -> `Error (false, Rmcast.Error.to_string e)
    | Ok outcome ->
      let report = outcome.Rmcast.Transfer.report in
      Printf.printf
        "verified=%b data=%d parity=%d naks=%d suppressed=%d E[M]=%.4f efficiency=%.1f%%\n"
        outcome.Rmcast.Transfer.verified report.Rmcast.Np.data_tx report.Rmcast.Np.parity_tx
        report.Rmcast.Np.naks_sent report.Rmcast.Np.naks_suppressed
        (Rmcast.Np.transmissions_per_packet report)
        (100.0 *. outcome.Rmcast.Transfer.efficiency);
      `Ok ())

let transfer_cmd =
  let bytes =
    Arg.(value & opt int 100_000 & info [ "bytes" ] ~docv:"N" ~doc:"Message size in bytes.")
  in
  let doc = "Run a full NP transfer over a simulated lossy network." in
  Cmd.v
    (Cmd.info "transfer" ~doc)
    Term.(
      ret (const transfer $ profile_term $ p_arg $ receivers_arg $ seed_arg $ bytes
           $ churn_arg))

(* --- serve ------------------------------------------------------------ *)

let serve_sim ~profile ~sessions ~receivers ~p ~seed ~bytes ~show_metrics =
  let module Scheduler = Rmcast.Scheduler in
  let module Transfer = Rmcast.Transfer in
  let rng = Rmcast.Rng.create ~seed () in
  let network = Rmcast.Network.independent (Rmcast.Rng.split rng) ~receivers ~p in
  match Scheduler.create ~profile ~network ~rng:(Rmcast.Rng.split rng) () with
  | Error e -> `Error (false, Rmcast.Error.to_string e)
  | Ok scheduler -> (
    let rec add sid =
      if sid >= sessions then Ok ()
      else
        (* Disjoint per-session payloads so cross-session corruption cannot
           verify by accident. *)
        let message =
          String.init bytes (fun i -> Char.chr ((i * 31 + sid * 97 + 13) mod 256))
        in
        match Scheduler.add scheduler ~name:(Printf.sprintf "session-%03d" sid) message with
        | Error e -> Error e
        | Ok () -> add (sid + 1)
    in
    match add 0 with
    | Error e -> `Error (false, Rmcast.Error.to_string e)
    | Ok () ->
      let metrics = Rmcast.Metrics.create () in
      let summary = Scheduler.run ~metrics scheduler in
      Printf.printf "%d sessions x %d bytes, %s\n" sessions bytes
        (Rmcast.Network.description network);
      Printf.printf "  %-12s %-8s %6s %7s %6s %7s %9s %9s\n" "session" "verified" "data"
        "parity" "naks" "E[M]" "start" "finish";
      List.iter
        (fun (r : Scheduler.result_) ->
          let report = r.outcome.Transfer.report in
          Printf.printf "  %-12s %-8b %6d %7d %6d %7.3f %9.3f %9.3f\n" r.name
            r.outcome.Transfer.verified report.Rmcast.Np.data_tx report.Rmcast.Np.parity_tx
            report.Rmcast.Np.naks_sent
            (Rmcast.Np.transmissions_per_packet report)
            r.started_at r.finished_at)
        summary.Scheduler.results;
      Printf.printf "all verified : %b\n" summary.Scheduler.all_verified;
      Printf.printf "makespan     : %.3f virtual s\n" summary.Scheduler.makespan;
      Printf.printf "goodput      : %.1f user kB / virtual s\n"
        (float_of_int summary.Scheduler.total_bytes /. summary.Scheduler.makespan /. 1e3);
      if show_metrics then begin
        print_endline "counters:";
        List.iter
          (fun (name, value) -> Printf.printf "  %-32s %d\n" name value)
          (Rmcast.Metrics.counters metrics)
      end;
      if summary.Scheduler.all_verified then `Ok ()
      else `Error (false, "some sessions failed verification"))

let serve_udp ~profile ~sessions ~receivers ~p ~seed ~bytes ~show_metrics ~capture
    ~faults ~shards ~multicast =
  let module Udp = Rmcast.Udp_np in
  let config = Udp.config_of_profile profile in
  let payload = profile.Rmcast.Profile.payload_size in
  let packets = max 1 ((bytes + payload - 1) / payload) in
  let rng = Rmcast.Rng.create ~seed () in
  let data =
    Array.init sessions (fun _ ->
        Array.init packets (fun _ ->
            Bytes.init payload (fun _ -> Char.chr (Rmcast.Rng.int rng 256))))
  in
  let transport = if multicast then `Multicast else `Unicast in
  let metrics = Rmcast.Metrics.create () in
  let recorder = Option.map (fun _ -> Rmcast.Recorder.create ()) capture in
  match
    Udp.run_multi ~config ~metrics ?recorder ?faults ~transport ~shards ~receivers ~loss:p
      ~seed:(seed + 1) ~sessions:data ()
  with
  | Error e -> `Error (false, Rmcast.Error.to_string e)
  | Ok report ->
    (match (capture, recorder) with
    | Some path, Some recorder ->
      Rmcast.Recorder.save ~path recorder;
      Printf.printf "capture: %d entries -> %s\n" (Rmcast.Recorder.length recorder) path
    | _ -> ());
    Printf.printf "%d sessions x %d packets over UDP loopback, %d receivers, loss %g\n"
      sessions packets receivers p;
    Printf.printf "  %-8s %-8s %4s %6s %7s %6s %10s\n" "session" "verified" "tgs" "data"
      "parity" "polls" "completed";
    Array.iter
      (fun (s : Udp.session_report) ->
        Printf.printf "  %-8d %-8b %4d %6d %7d %6d %6d/%d\n" s.Udp.session s.Udp.verified
          s.Udp.transmission_groups s.Udp.data_tx s.Udp.parity_tx s.Udp.polls s.Udp.completed
          receivers)
      report.Udp.session_reports;
    Printf.printf "all verified : %b\n" report.Udp.all_verified;
    Printf.printf "naks         : %d sent, %d suppressed\n" report.Udp.naks_sent
      report.Udp.naks_suppressed;
    Printf.printf "dropped      : %d (decode failures %d)\n" report.Udp.datagrams_dropped
      report.Udp.decode_failures;
    Printf.printf "wall         : %.3f s\n" report.Udp.wall_seconds;
    if show_metrics then begin
      print_endline "counters:";
      List.iter
        (fun (name, value) -> Printf.printf "  %-32s %d\n" name value)
        report.Udp.counters;
      print_endline "gauges:";
      List.iter
        (fun (name, value) -> Printf.printf "  %-36s %.1f\n" name value)
        (Rmcast.Metrics.gauges metrics)
    end;
    if report.Udp.all_verified then `Ok ()
    else `Error (false, "some sessions failed verification")

let serve profile sessions transport p receivers seed bytes show_metrics capture faults
    shards multicast =
  if sessions < 1 then `Error (false, "--sessions must be >= 1")
  else if (Option.is_some capture || Option.is_some faults) && transport <> `Udp then
    `Error (false, "--capture/--faults require --transport udp")
  else if shards < 1 then `Error (false, "--shards must be >= 1")
  else if (shards > 1 || multicast) && transport <> `Udp then
    `Error (false, "--shards/--multicast require --transport udp")
  else if multicast && not (Rmcast.Udp_multicast.is_available ()) then
    `Error (false, "--multicast: this environment does not route multicast over loopback")
  else
    match Rmcast.Profile.validate profile with
    | Error e -> `Error (false, Rmcast.Error.to_string e)
    | Ok profile -> (
      match transport with
      | `Sim -> serve_sim ~profile ~sessions ~receivers ~p ~seed ~bytes ~show_metrics
      | `Udp ->
        serve_udp ~profile ~sessions ~receivers ~p ~seed ~bytes ~show_metrics ~capture
          ~faults ~shards ~multicast)

let serve_cmd =
  let sessions =
    Arg.(value & opt int 8 & info [ "sessions"; "n" ] ~docv:"N" ~doc:"Concurrent sessions.")
  in
  let transport =
    let parse = function
      | "sim" | "simulated" -> Ok `Sim
      | "udp" -> Ok `Udp
      | other -> Error (`Msg (Printf.sprintf "unknown transport %S" other))
    in
    let print ppf t = Format.pp_print_string ppf (match t with `Sim -> "sim" | `Udp -> "udp") in
    Arg.(
      value
      & opt (conv (parse, print)) `Sim
      & info [ "transport" ] ~docv:"TRANSPORT"
          ~doc:
            "$(i,sim): interleave flows on the virtual-time scheduler; $(i,udp): multiplex \
             real loopback sessions over one reactor and a shared sender socket.")
  in
  let receivers =
    Arg.(value & opt int 100 & info [ "r"; "receivers" ] ~docv:"R" ~doc:"Receivers per session.")
  in
  let bytes =
    Arg.(
      value & opt int 20_000
      & info [ "bytes" ] ~docv:"BYTES" ~doc:"User bytes transferred by each session.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Dump the full counter registry (per-session scopes included) after the run.")
  in
  let capture =
    Arg.(
      value
      & opt (some string) None
      & info [ "capture" ] ~docv:"FILE"
          ~doc:
            "Record the sans-IO event/effect streams of every session to FILE (UDP transport \
             only, one shard); verify later with $(b,rmc replay) FILE.")
  in
  let faults =
    let parse spec = Result.map_error (fun m -> `Msg m) (Rmcast.Fault.spec_of_string spec) in
    let print ppf spec = Format.pp_print_string ppf (Rmcast.Fault.spec_to_string spec) in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject faults at the sender's datagram boundary (UDP transport only, one \
             shard), e.g. $(i,drop=0.05,dup=0.02,reorder=0.02,corrupt=0.01,seed=7).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"D"
          ~doc:
            "Partition the sessions across D domains (UDP transport only), each running \
             its own reactor, sockets and buffer pool; counters merge into one registry. \
             Clamped to the session count.")
  in
  let multicast =
    Arg.(
      value & flag
      & info [ "multicast" ]
          ~doc:
            "Use real multicast sockets (one send per datagram, kernel fan-out) instead \
             of the unicast shim (UDP transport only); requires an environment that \
             routes 239.0.0.0/8 over loopback.")
  in
  let doc = "Serve N concurrent sessions over one engine (scheduler or UDP mux)." in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret (const serve $ profile_term $ sessions $ transport $ p_arg $ receivers $ seed_arg
           $ bytes $ metrics $ capture $ faults $ shards $ multicast))

(* --- latency --------------------------------------------------------- *)

let latency k h a p receivers spacing feedback_delay =
  usage_errors @@ fun () ->
  let population = Rmcast.Receivers.homogeneous ~p ~count:receivers in
  let timing = { Rmcast.Latency.spacing; feedback_delay } in
  Printf.printf "Expected TG completion time [s], k = %d, p = %g, R = %d\n" k p receivers;
  Printf.printf "(packet spacing %g s, feedback delay %g s)\n" spacing feedback_delay;
  Printf.printf "  %-22s %10.4f\n" "no FEC" (Rmcast.Latency.no_fec ~population ~k timing);
  Printf.printf "  %-22s %10.4f\n"
    (Printf.sprintf "layered (k+%d)" h)
    (Rmcast.Latency.layered ~population ~k ~h timing);
  Printf.printf "  %-22s %10.4f\n" "integrated"
    (Rmcast.Latency.integrated ~population ~k timing ());
  if a > 0 then
    Printf.printf "  %-22s %10.4f\n"
      (Printf.sprintf "integrated (a=%d)" a)
      (Rmcast.Latency.integrated ~population ~k ~a timing ());
  `Ok ()

let latency_cmd =
  let spacing =
    Arg.(value & opt float 0.04 & info [ "spacing" ] ~docv:"S" ~doc:"Packet spacing, seconds.")
  in
  let feedback_delay =
    Arg.(value & opt float 0.3 & info [ "feedback-delay" ] ~docv:"T" ~doc:"Round gap, seconds.")
  in
  let doc = "Expected completion latency of the recovery schemes." in
  Cmd.v
    (Cmd.info "latency" ~doc)
    Term.(
      ret (const latency $ k_arg $ h_arg $ a_arg $ p_arg $ receivers_arg $ spacing
           $ feedback_delay))

(* --- feedback ---------------------------------------------------------- *)

let feedback k a p receivers slot delay seed =
  usage_errors @@ fun () ->
  let slot_counts = Rmcast.Feedback.slot_counts ~k ~a ~p ~receivers in
  let firers = Array.fold_left ( + ) 0 slot_counts in
  Printf.printf "Round 1 of NP at k = %d, a = %d, p = %g, R = %d:\n" k a p receivers;
  Printf.printf "  receivers needing repair : %d\n" firers;
  Printf.printf "  slot occupancy           : [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int slot_counts)));
  let naks =
    Rmcast.Feedback.simulate_suppression
      (Rmcast.Rng.create ~seed ())
      ~slot_counts ~slot ~delay ~reps:5_000
  in
  Printf.printf "  expected NAKs (slot %.0f ms, delay %.0f ms): %.2f\n" (1000.0 *. slot)
    (1000.0 *. delay) naks;
  Printf.printf "  without slotting (one window): %.2f\n"
    (Rmcast.Feedback.expected_naks_single_window ~firers ~window:slot ~delay);
  Printf.printf "  recommended slot for this delay: %.0f ms\n"
    (1000.0 *. Rmcast.Feedback.recommended_slot ~delay);
  `Ok ()

let feedback_cmd =
  let slot = Arg.(value & opt float 0.1 & info [ "slot" ] ~docv:"TS" ~doc:"Slot size, seconds.") in
  let delay =
    Arg.(value & opt float 0.025 & info [ "delay" ] ~docv:"D" ~doc:"One-way delay, seconds.")
  in
  let doc = "NAK volume under slotting and damping." in
  Cmd.v
    (Cmd.info "feedback" ~doc)
    Term.(ret (const feedback $ k_arg $ a_arg $ p_arg $ receivers_arg $ slot $ delay $ seed_arg))

(* --- trace ----------------------------------------------------------- *)

let trace_record out model p burst packets rate seed =
  usage_errors @@ fun () ->
  let rng = Rmcast.Rng.create ~seed () in
  let spacing = 1.0 /. rate in
  let loss =
    match model with
    | `Bernoulli -> Rmcast.Loss.bernoulli rng ~p
    | `Markov -> Rmcast.Loss.markov2 rng ~p ~mean_burst:burst ~send_rate:rate
  in
  let trace = Rmcast.Trace_io.record loss ~packets ~spacing in
  Rmcast.Trace_io.save ~path:out trace;
  Format.printf "%s:@,%a@." out Rmcast.Trace_io.pp_stats (Rmcast.Trace_io.stats trace);
  `Ok ()

let trace_stats path =
  let trace = Rmcast.Trace_io.load ~path in
  Format.printf "%a@." Rmcast.Trace_io.pp_stats (Rmcast.Trace_io.stats trace);
  `Ok ()

let trace_model_arg =
  let parse = function
    | "bernoulli" -> Ok `Bernoulli
    | "markov" | "burst" -> Ok `Markov
    | other -> Error (`Msg (Printf.sprintf "unknown model %S" other))
  in
  let print ppf m =
    Format.pp_print_string ppf (match m with `Bernoulli -> "bernoulli" | `Markov -> "markov")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Markov
    & info [ "model" ] ~docv:"MODEL" ~doc:"Loss model: bernoulli or markov (bursty).")

let trace_record_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUTPUT") in
  let burst =
    Arg.(value & opt float 2.0 & info [ "burst" ] ~docv:"B" ~doc:"Mean burst length (markov).")
  in
  let packets =
    Arg.(value & opt int 100_000 & info [ "packets" ] ~docv:"N" ~doc:"Trace length in packets.")
  in
  let rate =
    Arg.(value & opt float 25.0 & info [ "rate" ] ~docv:"PKTS/S" ~doc:"Packet rate.")
  in
  let doc = "Record a synthetic loss trace to a file." in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(
      ret (const trace_record $ out $ trace_model_arg $ p_arg $ burst $ packets $ rate $ seed_arg))

let trace_stats_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let doc = "Loss rate and burst statistics of a trace file." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const trace_stats $ path))

let trace_cmd =
  let doc = "Record and inspect packet-loss traces." in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_record_cmd; trace_stats_cmd ]

(* --- replay ------------------------------------------------------------ *)

let replay path =
  match Rmcast.Recorder.load ~path with
  | Error message -> `Error (false, message)
  | Ok recorder -> (
    match Rmcast.Np_replay.replay recorder with
    | Error message -> `Error (false, Printf.sprintf "%s: %s" path message)
    | Ok outcome -> (
      Printf.printf "%s: %d entries (%d machine events, %d effects checked)\n" path
        (Rmcast.Recorder.length recorder)
        outcome.Rmcast.Np_replay.events outcome.Rmcast.Np_replay.effects;
      match outcome.Rmcast.Np_replay.divergence with
      | None ->
        print_endline "replay: OK (every recorded effect reproduced, in order)";
        `Ok ()
      | Some reason -> `Error (false, "replay diverged: " ^ reason)))

let replay_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"CAPTURE") in
  let doc =
    "Re-execute a capture ($(b,rmc serve --transport udp --capture)) through the sans-IO \
     NP core and verify the machines reproduce the recorded effect streams bit-for-bit."
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(ret (const replay $ path))

(* --- capacity ----------------------------------------------------------- *)

let capacity k p target =
  usage_errors @@ fun () ->
  let show name rates_at =
    let cap = Rmcast.Endhost.capacity ~rates_at ~target in
    if cap >= 100_000_000 then Printf.printf "  %-16s unbounded (>= 10^8)\n" name
    else Printf.printf "  %-16s R <= %d\n" name cap
  in
  Printf.printf "Largest group meeting %.1f pkts/s end-system throughput (p = %g, k = %d):\n"
    target p k;
  show "N1" (fun receivers -> Rmcast.Endhost_n1.n1 ~p ~receivers ());
  show "N2" (fun receivers -> Rmcast.Endhost.n2 ~p ~receivers ());
  show "NP" (fun receivers -> Rmcast.Endhost.np ~p ~k ~receivers ());
  show "NP pre-encoded" (fun receivers ->
      Rmcast.Endhost.np ~pre_encoded:true ~p ~k ~receivers ());
  `Ok ()

let capacity_cmd =
  let target =
    Arg.(value & opt float 500.0 & info [ "target" ] ~docv:"PKTS/S" ~doc:"Required throughput.")
  in
  let doc = "Capacity planning: largest group each protocol can serve." in
  Cmd.v (Cmd.info "capacity" ~doc) Term.(ret (const capacity $ k_arg $ p_arg $ target))

(* --- main ------------------------------------------------------------ *)

let () =
  let doc = "parity-based loss recovery for reliable multicast (SIGCOMM'97 reproduction)" in
  let info = Cmd.info "rmc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; sweep_cmd; simulate_cmd; plan_cmd; endhost_cmd; latency_cmd;
            feedback_cmd; capacity_cmd; codec_cmd; transfer_cmd; serve_cmd; replay_cmd;
            trace_cmd ]))
