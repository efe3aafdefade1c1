module Rng = Rmc_numerics.Rng
module Recorder = Rmc_obs.Recorder

let hex_of_payloads payloads =
  Hex.encode (Bytes.concat Bytes.empty (Array.to_list payloads))

let payloads_of_hex ~payload_size s =
  let length = String.length s in
  if length mod 2 <> 0 then Error "odd-length data hex"
  else
    let total = length / 2 in
    if total mod payload_size <> 0 then Error "data not a whole number of payloads"
    else
      match Hex.decode s with
      | Error _ -> Error "malformed data hex"
      | Ok data ->
        Ok
          (Array.init (total / payload_size) (fun p ->
               Bytes.sub data (p * payload_size) payload_size))

let record_setup recorder ?(controller = `Static) ~config ~payload_size ~receivers
    ~sessions ~rx_seeds () =
  let set = Recorder.set_meta recorder in
  set "format" "np-machine/1";
  set "k" (string_of_int config.Np_machine.k);
  set "h" (string_of_int config.Np_machine.h);
  set "proactive" (string_of_int config.Np_machine.proactive);
  set "pre_encode" (if config.Np_machine.pre_encode then "true" else "false");
  set "slot" (Printf.sprintf "%h" config.Np_machine.slot);
  set "codec" (Rmc_core.Profile.codec_to_string config.Np_machine.codec);
  set "controller" (Rmc_core.Profile.controller_to_string controller);
  set "payload" (string_of_int payload_size);
  set "receivers" (string_of_int receivers);
  set "sessions" (string_of_int (Array.length sessions));
  Array.iteri (fun sid data -> set (Printf.sprintf "data.%d" sid) (hex_of_payloads data)) sessions;
  Array.iteri (fun id seed -> set (Printf.sprintf "rxseed.%d" id) (string_of_int seed)) rx_seeds

let machine_config (p : Rmc_core.Profile.t) =
  { Np_machine.k = p.k; h = p.h; proactive = p.proactive; pre_encode = p.pre_encode;
    slot = p.slot; codec = p.codec }

let wire_tg ~sid local = (sid lsl 16) lor local
let sid_of_wire wire = (wire lsr 16) land 0xFFFF
let local_of_wire wire = wire land 0xFFFF

let tg_count ~k data = (Array.length data + k - 1) / k

(* The wire tg holds the session-local TG index in 16 bits: past 0x10000
   TGs one session's ids would run into the next session's, and a
   receiver refuses an expected list that names a TG twice. *)
let fits_wire ~k data = tg_count ~k data <= 0x10000

let expected ~k ~sid data =
  let total = Array.length data in
  List.init (tg_count ~k data) (fun local ->
      (wire_tg ~sid local, min k (total - (local * k))))

let step ~recorder ~actor handle event =
  Recorder.record_event recorder ~actor (Np_machine.event_to_string event);
  let effects = handle event in
  List.iter
    (fun e -> Recorder.record_effect recorder ~actor (Np_machine.effect_to_string e))
    effects;
  effects

type outcome = {
  events : int;
  effects : int;
  divergence : string option;
}

let ( let* ) = Result.bind

(* One meta value through [parse]; [default] stands in for a key that
   older captures do not carry. *)
let meta recorder ?default key parse =
  match (Recorder.meta recorder key, default) with
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "capture meta missing %s" key)
  | Some v, _ -> (
    match parse v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "capture meta %s: cannot parse %S" key v))

(* [f 0], ..., [f (n - 1)], stopping at the first error. *)
let collect n f =
  let rec go i acc =
    if i = n then Ok (Array.of_list (List.rev acc))
    else
      let* x = f i in
      go (i + 1) (x :: acc)
  in
  go 0 []

type machine =
  | M_sender of Np_machine.Sender.t
  | M_receiver of Np_machine.Receiver.t

let replay recorder =
  let* k = meta recorder "k" int_of_string_opt in
  let* h = meta recorder "h" int_of_string_opt in
  let* proactive = meta recorder "proactive" int_of_string_opt in
  let* pre_encode = meta recorder "pre_encode" bool_of_string_opt in
  let* slot = meta recorder "slot" float_of_string_opt in
  (* Captures written before the codec seam carry no "codec" key (they
     were all RSE), and pre-control-plane captures no "controller" key
     (all static).  Replay never *runs* a controller — its decisions are
     in the event stream as [Retune] events — so that key only takes part
     in validation. *)
  let* codec = meta recorder ~default:`Rse "codec" Rmc_core.Profile.codec_of_string in
  let* controller =
    meta recorder ~default:`Static "controller" Rmc_core.Profile.controller_of_string
  in
  let* payload_size = meta recorder "payload" int_of_string_opt in
  let* receivers = meta recorder "receivers" int_of_string_opt in
  let* nsessions = meta recorder "sessions" int_of_string_opt in
  (* A hostile meta must come back as [Error], never as a raise from the
     machine constructors: the profile rules every driver admits by apply
     here too.  Pacing is not recorded (the machines never see it), so the
     default stands in. *)
  let* profile =
    Result.map_error Rmc_core.Error.to_string
      (Rmc_core.Profile.validate ~context:"capture meta"
         { Rmc_core.Profile.default with k; h; proactive; payload_size; slot; pre_encode;
           codec; controller })
  in
  if nsessions < 1 then Error "capture meta sessions: must be >= 1"
  else if receivers < 1 then Error "capture meta receivers: must be >= 1"
  else
    let config = machine_config profile in
    let* sessions =
      collect nsessions (fun sid ->
          let* hex = meta recorder (Printf.sprintf "data.%d" sid) Option.some in
          payloads_of_hex ~payload_size hex)
    in
    let* () =
      match Array.find_index (fun data -> not (fits_wire ~k data)) sessions with
      | Some sid ->
        Error (Printf.sprintf "capture meta data.%d: too many TGs (wire tg is 16-bit)" sid)
      | None -> Ok ()
    in
    let* rx_seeds =
      collect receivers (fun id ->
          meta recorder (Printf.sprintf "rxseed.%d" id) int_of_string_opt)
    in
    (* Every receiver expects every TG of every session, exactly as the
       UDP driver registers them. *)
    let expected =
      List.concat (List.init nsessions (fun sid -> expected ~k ~sid sessions.(sid)))
    in
    let machines : (string, machine) Hashtbl.t = Hashtbl.create 8 in
    let machine_of actor =
      match Hashtbl.find_opt machines actor with
      | Some m -> Ok m
      | None ->
        let make =
          if String.length actor >= 2 && actor.[0] = 's' then
            match int_of_string_opt (String.sub actor 1 (String.length actor - 1)) with
            | Some sid when sid >= 0 && sid < nsessions ->
              Ok (M_sender (Np_machine.Sender.create config ~data:sessions.(sid)))
            | _ -> Error (Printf.sprintf "unknown sender actor %s" actor)
          else if String.length actor >= 2 && actor.[0] = 'r' then
            match int_of_string_opt (String.sub actor 1 (String.length actor - 1)) with
            | Some id when id >= 0 && id < receivers ->
              let rng = Rng.create ~seed:rx_seeds.(id) () in
              Ok
                (M_receiver
                   (Np_machine.Receiver.create ~expected config ~rand:(fun () ->
                        Rng.float rng)))
            | _ -> Error (Printf.sprintf "unknown receiver actor %s" actor)
          else Error (Printf.sprintf "unknown actor %s" actor)
        in
        Result.map
          (fun m ->
            Hashtbl.replace machines actor m;
            m)
          make
    in
    (* Per-actor queue of effect strings the replayed machine produced and
       the capture has not yet confirmed. *)
    let pending : (string, string Queue.t) Hashtbl.t = Hashtbl.create 8 in
    let pending_of actor =
      match Hashtbl.find_opt pending actor with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace pending actor q;
        q
    in
    let events = ref 0 and effects = ref 0 in
    let step index (entry : Recorder.entry) =
      let q = pending_of entry.actor in
      match entry.kind with
      | Recorder.Event ->
        if not (Queue.is_empty q) then
          Error
            (Printf.sprintf
               "entry %d (%s): replay produced effect %S the capture never recorded" index
               entry.actor (Queue.peek q))
        else
          let* event =
            Result.map_error
              (fun reason -> Printf.sprintf "entry %d (%s): %s" index entry.actor reason)
              (Np_machine.event_of_string entry.body)
          in
          let* machine = machine_of entry.actor in
          incr events;
          let emitted =
            match machine with
            | M_sender s -> Np_machine.Sender.handle s event
            | M_receiver r -> Np_machine.Receiver.handle r event
          in
          List.iter (fun e -> Queue.push (Np_machine.effect_to_string e) q) emitted;
          Ok ()
      | Recorder.Effect ->
        if Queue.is_empty q then
          Error
            (Printf.sprintf "entry %d (%s): capture records effect %S the replay never produced"
               index entry.actor entry.body)
        else
          let produced = Queue.pop q in
          incr effects;
          if String.equal produced entry.body then Ok ()
          else
            Error
              (Printf.sprintf "entry %d (%s): capture %S, replay %S" index entry.actor
                 entry.body produced)
    in
    let rec walk index = function
      | [] -> Ok None
      | entry :: rest -> (
        match step index entry with
        | Ok () -> walk (index + 1) rest
        | Error divergence -> Ok (Some divergence))
    in
    let* divergence = walk 0 (Recorder.entries recorder) in
    let divergence =
      match divergence with
      | Some _ as d -> d
      | None ->
        Hashtbl.fold
          (fun actor q acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if Queue.is_empty q then None
              else
                Some
                  (Printf.sprintf
                     "end of capture (%s): replay produced trailing effect %S" actor
                     (Queue.peek q)))
          pending None
    in
    Ok { events = !events; effects = !effects; divergence }
