(* Stricter than the tree-wide flags: label and constructor disambiguation
   (warnings 40/41) is an error in the core both drivers interpret. *)
[@@@ocaml.warning "+40+41"]

module Codec = Rmc_rse.Codec
module Fec_block = Rmc_rse.Fec_block
module Header = Rmc_wire.Header

type config = {
  k : int;
  h : int;
  proactive : int;
  pre_encode : bool;
  slot : float;
  codec : Codec.kind;
}

let validate_config c =
  if c.k < 1 then invalid_arg "Np_machine: k must be >= 1";
  if c.h < 0 || c.proactive < 0 || c.proactive > c.h then
    invalid_arg "Np_machine: need 0 <= proactive <= h";
  if c.slot <= 0.0 then invalid_arg "Np_machine: slot must be positive";
  if c.h > Codec.max_repair (Codec.of_kind c.codec) ~k:c.k then
    invalid_arg "Np_machine: repair budget exceeds the codec's index space"

type event =
  | Packet_received of Header.message
  | Timer_fired of { tg : int; round : int }
  | Feedback of { tg : int; need : int; round : int }
  | Retune of { proactive : int; budget : int }
  | Tick

type effect =
  | Send of Header.message
  | Arm_timer of { tg : int; round : int; offset : float }
  | Cancel_timer of { tg : int }
  | Deliver of { tg : int; data : Bytes.t array; reconstructed : int }
  | Ejected of { tg : int }
  | Trace of string
  | Done

(* --- replay-log serialization ----------------------------------------- *)

let event_to_string = function
  | Packet_received message -> "pkt:" ^ Hex.encode (Header.encode message)
  | Timer_fired { tg; round } -> Printf.sprintf "timer:%d:%d" tg round
  | Feedback { tg; need; round } -> Printf.sprintf "fb:%d:%d:%d" tg need round
  | Retune { proactive; budget } -> Printf.sprintf "retune:%d:%d" proactive budget
  | Tick -> "tick"

let event_of_string s =
  let fields prefix arity =
    match String.split_on_char ':' s with
    | p :: rest when p = prefix && List.length rest = arity ->
      (try Ok (List.map int_of_string rest) with _ -> Error ("bad " ^ prefix ^ " event"))
    | _ -> Error ("bad " ^ prefix ^ " event")
  in
  if s = "tick" then Ok Tick
  else if String.length s > 4 && String.sub s 0 4 = "pkt:" then
    match Hex.decode (String.sub s 4 (String.length s - 4)) with
    | Error _ as e -> e
    | Ok bytes ->
      (match Header.decode bytes with
      | Ok message -> Ok (Packet_received message)
      | Error reason -> Error ("bad packet event: " ^ reason))
  else if String.length s >= 6 && String.sub s 0 6 = "timer:" then
    match fields "timer" 2 with
    | Ok [ tg; round ] -> Ok (Timer_fired { tg; round })
    | Ok _ | Error _ -> Error "bad timer event"
  else if String.length s >= 3 && String.sub s 0 3 = "fb:" then
    match fields "fb" 3 with
    | Ok [ tg; need; round ] -> Ok (Feedback { tg; need; round })
    | Ok _ | Error _ -> Error "bad fb event"
  else if String.length s >= 7 && String.sub s 0 7 = "retune:" then
    match fields "retune" 2 with
    | Ok [ proactive; budget ] -> Ok (Retune { proactive; budget })
    | Ok _ | Error _ -> Error "bad retune event"
  else Error ("unknown event: " ^ s)

let effect_to_string = function
  | Send message -> "send:" ^ Hex.encode (Header.encode message)
  | Arm_timer { tg; round; offset } -> Printf.sprintf "arm:%d:%d:%h" tg round offset
  | Cancel_timer { tg } -> Printf.sprintf "cancel:%d" tg
  | Deliver { tg; data; reconstructed } ->
    (* Digesting keeps replay logs small; equal digests of equal-shape
       payload arrays mean bit-identical delivery. *)
    let digest = Digest.bytes (Bytes.concat Bytes.empty (Array.to_list data)) in
    Printf.sprintf "deliver:%d:%d:%s" tg reconstructed (Digest.to_hex digest)
  | Ejected { tg } -> Printf.sprintf "ejected:%d" tg
  | Trace detail -> "trace:" ^ detail
  | Done -> "done"

(* --- sender ------------------------------------------------------------ *)

type tg_sender = {
  ts_id : int;
  block : Fec_block.Sender.t;
  mutable serviced_round : int; (* highest round whose NAK was handled *)
  mutable polled_round : int; (* highest round a POLL was sent for *)
  mutable budget : int; (* parity cap for this TG, frozen at materialization *)
}

type job =
  | J_packet of { tg : tg_sender; index : int } (* < k data, >= k parity *)
  | J_poll of { tg : tg_sender; size : int; round : int }
  | J_exhausted of { tg : tg_sender }

let tg_k tg = Fec_block.Sender.k tg.block

module Sender = struct
  type t = {
    config : config;
    tgs : tg_sender array;
    repair_queue : job Queue.t; (* repairs pre-empt the data stream *)
    stream_queue : job Queue.t;
    (* The control plane: volleys are materialized lazily, one TG at a
       time, under the tuning current at that moment.  With no Retune
       events the walk is job-for-job identical to queueing everything up
       front (repairs pre-empt the stream either way, and parity issue
       order is per-TG state), which is what keeps the Static controller
       bit-exact with pre-control-plane captures. *)
    mutable next_tg : int;
    mutable cur_proactive : int;
    mutable cur_budget : int;
    mutable retunes : int;
    mutable data_tx : int;
    mutable parity_tx : int;
    mutable polls : int;
    mutable parities_encoded : int;
    mutable repair_rounds : int;
  }

  let create config ~data =
    validate_config config;
    if Array.length data = 0 then invalid_arg "Np_machine.Sender.create: no data";
    let c = config in
    let total = Array.length data in
    let tg_count = (total + c.k - 1) / c.k in
    let parities_encoded = ref 0 in
    let tgs =
      Array.init tg_count (fun i ->
          let base = i * c.k in
          let len = min c.k (total - base) in
          (* Block-codec construction is memoized per (kind, k, h), so
             concurrent sessions share one codec and its decode plans. *)
          let codec = Codec.of_kind c.codec in
          let block = Fec_block.Sender.create ~codec ~h:c.h (Array.sub data base len) in
          if c.pre_encode then begin
            Fec_block.Sender.precompute block;
            parities_encoded := !parities_encoded + c.h
          end;
          { ts_id = i; block; serviced_round = 0; polled_round = 0; budget = c.h })
    in
    {
      config = c;
      tgs;
      repair_queue = Queue.create ();
      stream_queue = Queue.create ();
      next_tg = 0;
      cur_proactive = min c.proactive c.h;
      cur_budget = c.h;
      retunes = 0;
      data_tx = 0;
      parity_tx = 0;
      polls = 0;
      parities_encoded = !parities_encoded;
      repair_rounds = 0;
    }

  (* Queue the next TG's initial volley (data + proactive parities + poll)
     under the tuning in force right now. *)
  let materialize t =
    if t.next_tg < Array.length t.tgs then begin
      let tg = t.tgs.(t.next_tg) in
      t.next_tg <- t.next_tg + 1;
      tg.budget <- t.cur_budget;
      let k = tg_k tg in
      for index = 0 to k - 1 do
        Queue.push (J_packet { tg; index }) t.stream_queue
      done;
      let a = min t.cur_proactive tg.budget in
      if a > 0 then begin
        let fresh = Fec_block.Sender.next_parities tg.block a in
        if not t.config.pre_encode then t.parities_encoded <- t.parities_encoded + a;
        List.iter
          (fun (j, _) -> Queue.push (J_packet { tg; index = k + j }) t.stream_queue)
          fresh
      end;
      Queue.push (J_poll { tg; size = k + a; round = 1 }) t.stream_queue
    end

  let pending t =
    (not (Queue.is_empty t.repair_queue))
    || (not (Queue.is_empty t.stream_queue))
    || t.next_tg < Array.length t.tgs

  let next_job t =
    if not (Queue.is_empty t.repair_queue) then Some (Queue.pop t.repair_queue)
    else begin
      if Queue.is_empty t.stream_queue then materialize t;
      if Queue.is_empty t.stream_queue then None else Some (Queue.pop t.stream_queue)
    end

  let tick t =
    match next_job t with
    | None -> []
    | Some (J_packet { tg; index }) ->
      let k = tg_k tg in
      if index < k then begin
        t.data_tx <- t.data_tx + 1;
        [
          Send
            (Header.Data
               { tg_id = tg.ts_id; k; index; payload = (Fec_block.Sender.data tg.block).(index) });
        ]
      end
      else begin
        t.parity_tx <- t.parity_tx + 1;
        [
          Send
            (Header.Parity
               {
                 tg_id = tg.ts_id;
                 k;
                 index = index - k;
                 round = 0;
                 payload = Fec_block.Sender.parity tg.block (index - k);
               });
        ]
      end
    | Some (J_poll { tg; size; round }) ->
      t.polls <- t.polls + 1;
      tg.polled_round <- round;
      [ Send (Header.Poll { tg_id = tg.ts_id; k = tg_k tg; size; round }) ]
    | Some (J_exhausted { tg }) -> [ Send (Header.Exhausted { tg_id = tg.ts_id }) ]

  let feedback t ~tg ~need ~round =
    if tg < 0 || tg >= Array.length t.tgs then []
    else begin
      let tgs = t.tgs.(tg) in
      (* A NAK answers a POLL: one for a round not yet polled (a forged or
         corrupted round) would otherwise queue a POLL the wire cannot
         carry, at round 2^32. *)
      if tgs.serviced_round >= round || round > tgs.polled_round then []
      else begin
        tgs.serviced_round <- round;
        t.repair_rounds <- t.repair_rounds + 1;
        let cap = min tgs.budget (Fec_block.Sender.h tgs.block) in
        let remaining = max 0 (cap - Fec_block.Sender.parities_issued tgs.block) in
        if remaining = 0 then begin
          Queue.push (J_exhausted { tg = tgs }) t.repair_queue;
          [ Trace (Printf.sprintf "np.exhausted tg=%d round=%d" tg round) ]
        end
        else begin
          let batch = min (max 0 need) remaining in
          let fresh = Fec_block.Sender.next_parities tgs.block batch in
          if not t.config.pre_encode then t.parities_encoded <- t.parities_encoded + batch;
          List.iter
            (fun (j, _) -> Queue.push (J_packet { tg = tgs; index = tg_k tgs + j }) t.repair_queue)
            fresh;
          Queue.push (J_poll { tg = tgs; size = batch; round = round + 1 }) t.repair_queue;
          [ Trace (Printf.sprintf "np.repair tg=%d round=%d batch=%d" tg round batch) ]
        end
      end
    end

  (* Adopt a new tuning for TGs that have not been materialized yet.
     In-flight TGs keep the budget they were frozen with (a retune can
     therefore never strand a TG below its already-issued parities), and
     the budget is capped by config.h because every FEC block was built
     with h parities. *)
  let retune t ~proactive ~budget =
    let budget = max 0 (min budget t.config.h) in
    let proactive = max 0 (min proactive budget) in
    if proactive = t.cur_proactive && budget = t.cur_budget then []
    else begin
      t.cur_proactive <- proactive;
      t.cur_budget <- budget;
      t.retunes <- t.retunes + 1;
      [
        Trace
          (Printf.sprintf "np.retune proactive=%d budget=%d next_tg=%d" proactive
             budget t.next_tg);
      ]
    end

  let handle t = function
    | Tick -> tick t
    | Feedback { tg; need; round } -> feedback t ~tg ~need ~round
    | Retune { proactive; budget } -> retune t ~proactive ~budget
    | Packet_received (Header.Nak { tg_id; need; round }) -> feedback t ~tg:tg_id ~need ~round
    | Packet_received _ | Timer_fired _ -> []

  let tg_count t = Array.length t.tgs

  let block_data t ~tg =
    if tg < 0 || tg >= Array.length t.tgs then invalid_arg "Np_machine.Sender.block_data";
    Fec_block.Sender.data t.tgs.(tg).block

  let data_tx t = t.data_tx
  let parity_tx t = t.parity_tx
  let polls t = t.polls
  let parities_encoded t = t.parities_encoded
  let repair_rounds t = t.repair_rounds
  let retunes t = t.retunes
  let tuning t = (t.cur_proactive, t.cur_budget)
end

(* --- receiver ----------------------------------------------------------- *)

(* A TG holds a decoder only from its first DATA or PARITY until it
   resolves.  Opening it there, not at [create], keeps the decoder and the
   payloads it collects young together: stored into a block already in the
   major heap, every payload would join the remembered set and be promoted
   at the next minor collection, even when its TG is delivered and dropped
   before then.  A resolved TG keeps no decoder, so a receiver's memory is
   bounded by its open TGs, not by the transfer. *)
type tg_state = Waiting | Open of Fec_block.Receiver.t | Delivered | Gave_up

type tg_receiver = {
  rk : int; (* the block's own k (indices are validated against it) *)
  rn : int; (* k + h: upper bound for parity indices *)
  mutable state : tg_state;
  mutable armed_round : int option; (* round of the pending NAK timer *)
  mutable nak_round : int; (* round the pending/last NAK belongs to *)
}

(* The index of [tg] in the ascending [ids], or -1.  Annotated [int] so
   every comparison is an integer one: a polymorphic search would go
   through [compare_val].  Top-level, so a lookup allocates nothing. *)
let rec search (ids : int array) (tg : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let id = ids.(mid) in
    if id = tg then mid else if id < tg then search ids tg (mid + 1) hi else search ids tg lo mid

module Receiver = struct
  type t = {
    config : config;
    rand : unit -> float;
    tg_ids : int array; (* the expected TG ids, ascending *)
    blocks : tg_receiver array; (* [blocks.(i)] is TG [tg_ids.(i)]'s *)
    mutable resolved_count : int;
    mutable finished : bool;
    mutable naks_sent : int;
    mutable naks_suppressed : int;
    mutable duplicates : int;
    mutable unnecessary : int;
    mutable packets_decoded : int;
  }

  let make_block config ~k =
    { rk = k; rn = k + config.h; state = Waiting; armed_round = None; nak_round = 0 }

  (* The block of TG [tg], or -1 if [tg] is not expected. *)
  let find t tg = search t.tg_ids tg 0 (Array.length t.tg_ids)

  (* Packets still missing: a TG that has received nothing needs its
     whole [k], as an empty decoder would report. *)
  let needed block =
    match block.state with
    | Waiting -> block.rk
    | Open rx -> Fec_block.Receiver.needed rx
    | Delivered | Gave_up -> 0

  let create ~expected config ~rand =
    validate_config config;
    List.iter
      (fun (_, k) -> if k < 1 then invalid_arg "Np_machine.Receiver.create: expected k < 1")
      expected;
    let expected = Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) expected) in
    let tg_ids = Array.map fst expected in
    for i = 1 to Array.length tg_ids - 1 do
      if tg_ids.(i) = tg_ids.(i - 1) then
        invalid_arg "Np_machine.Receiver.create: duplicate expected TG"
    done;
    {
      config;
      rand;
      tg_ids;
      blocks = Array.map (fun (_, k) -> make_block config ~k) expected;
      resolved_count = 0;
      finished = false;
      naks_sent = 0;
      naks_suppressed = 0;
      duplicates = 0;
      unnecessary = 0;
      packets_decoded = 0;
    }

  (* An expected TG just resolved (delivered or gave up): emit Done once
     the whole expected set has. *)
  let resolve t =
    t.resolved_count <- t.resolved_count + 1;
    if t.resolved_count = Array.length t.tg_ids && not t.finished then begin
      t.finished <- true;
      [ Done ]
    end
    else []

  (* Data packets [0, k) that did not arrive verbatim: the count only, so
     no index list is built. *)
  let count_missing_data rx k =
    let missing = ref 0 in
    for index = 0 to k - 1 do
      if not (Fec_block.Receiver.has_data rx index) then incr missing
    done;
    !missing

  (* One payload into an open decoder: a duplicate is counted, the payload
     that completes the TG delivers it. *)
  let add t block rx ~tg_id ~index payload =
    if not (Fec_block.Receiver.add rx ~index payload) then begin
      t.unnecessary <- t.unnecessary + 1;
      t.duplicates <- t.duplicates + 1;
      []
    end
    else if Fec_block.Receiver.complete rx then begin
      let reconstructed = count_missing_data rx block.rk in
      t.packets_decoded <- t.packets_decoded + reconstructed;
      let decoded = Fec_block.Receiver.decode rx in
      block.state <- Delivered;
      let cancel =
        match block.armed_round with
        | Some _ ->
          block.armed_round <- None;
          [ Cancel_timer { tg = tg_id } ]
        | None -> []
      in
      (Deliver { tg = tg_id; data = decoded; reconstructed } :: cancel) @ resolve t
    end
    else []

  (* [index] is the codeword position: a parity's index is offset by the
     block's own [k]. *)
  let store t block ~tg_id ~index payload =
    match block.state with
    | Delivered | Gave_up ->
      t.unnecessary <- t.unnecessary + 1;
      []
    | (Waiting | Open _) when index < 0 || index >= block.rn ->
      [] (* malformed: out of codec range *)
    | Waiting ->
      let codec = Codec.of_kind t.config.codec in
      let rx = Fec_block.Receiver.create ~codec ~k:block.rk ~h:t.config.h in
      block.state <- Open rx;
      add t block rx ~tg_id ~index payload
    | Open rx -> add t block rx ~tg_id ~index payload

  let poll t block ~tg_id ~size ~round =
    match block.state with
    | (Waiting | Open _) when block.nak_round < round ->
      let need = needed block in
      if need > 0 then begin
        (* Slotting (paper §5.1): receivers missing more packets answer in
           earlier slots; damping adds a uniform offset within the slot. *)
        let slot_index = max 0 (size - need) in
        let offset =
          (float_of_int slot_index *. t.config.slot) +. (t.rand () *. t.config.slot)
        in
        block.armed_round <- Some round;
        [ Arm_timer { tg = tg_id; round; offset } ]
      end
      else []
    | Waiting | Open _ | Delivered | Gave_up -> []

  let timer_fired t block ~tg ~round =
    match block.armed_round with
    | Some armed when armed = round ->
      block.armed_round <- None;
      let need = needed block in
      if need > 0 then begin
        t.naks_sent <- t.naks_sent + 1;
        block.nak_round <- round;
        [ Send (Header.Nak { tg_id = tg; need; round }) ]
      end
      else []
    | Some _ | None -> [] (* stale fire: the timer was re-armed or resolved *)

  let overhear t block ~tg_id ~need ~round =
    match (block.armed_round, block.state) with
    | Some _, (Waiting | Open _) when block.nak_round < round ->
      (* Pending timer belongs to this round iff scheduled by its poll;
         suppression applies when the overheard request covers ours. *)
      if need >= needed block then begin
        block.armed_round <- None;
        block.nak_round <- round;
        t.naks_suppressed <- t.naks_suppressed + 1;
        [ Cancel_timer { tg = tg_id } ]
      end
      else []
    | _ -> []

  let exhausted t block ~tg_id =
    match block.state with
    | Delivered | Gave_up -> []
    | Waiting | Open _ ->
      block.state <- Gave_up;
      let cancel =
        match block.armed_round with
        | Some _ ->
          block.armed_round <- None;
          [ Cancel_timer { tg = tg_id } ]
        | None -> []
      in
      cancel @ (Ejected { tg = tg_id } :: resolve t)

  let handle t event =
    if t.finished then begin
      (* Done has been emitted: the machine is inert.  Late data/parity
         still counts as unnecessary (it was multicast for someone else). *)
      (match event with
      | Packet_received (Header.Data _ | Header.Parity _) ->
        t.unnecessary <- t.unnecessary + 1
      | _ -> ());
      []
    end
    else
      match event with
      | Packet_received message -> (
        let tg_id = Header.tg_id message in
        let i = find t tg_id in
        if i < 0 then []
        else
          let block = t.blocks.(i) in
          match message with
          | Header.Data { tg_id = _; k = _; index; payload } -> store t block ~tg_id ~index payload
          | Header.Parity { tg_id = _; k = _; index; round = _; payload } ->
            store t block ~tg_id ~index:(block.rk + index) payload
          | Header.Poll { tg_id = _; k = _; size; round } -> poll t block ~tg_id ~size ~round
          | Header.Nak { tg_id = _; need; round } -> overhear t block ~tg_id ~need ~round
          | Header.Exhausted _ -> exhausted t block ~tg_id)
      | Timer_fired { tg; round } ->
        let i = find t tg in
        if i < 0 then [] else timer_fired t t.blocks.(i) ~tg ~round
      | Feedback _ | Retune _ | Tick -> []

  let resolved t = t.resolved_count
  let finished t = t.finished

  (* A TG outside the expected set reads as one that received nothing. *)
  let state t ~tg =
    let i = find t tg in
    if i < 0 then Waiting else t.blocks.(i).state

  let delivered t ~tg = match state t ~tg with Delivered -> true | _ -> false
  let gave_up t ~tg = match state t ~tg with Gave_up -> true | _ -> false

  let timer_armed t ~tg =
    let i = find t tg in
    i >= 0 && Option.is_some t.blocks.(i).armed_round

  let naks_sent t = t.naks_sent
  let naks_suppressed t = t.naks_suppressed
  let duplicates t = t.duplicates
  let unnecessary t = t.unnecessary
  let packets_decoded t = t.packets_decoded
end
