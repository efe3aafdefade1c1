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

let hex_of_bytes bytes =
  let buffer = Buffer.create (2 * Bytes.length bytes) in
  Bytes.iter (fun c -> Buffer.add_string buffer (Printf.sprintf "%02x" (Char.code c))) bytes;
  Buffer.contents buffer

let bytes_of_hex s =
  let length = String.length s in
  if length mod 2 <> 0 then Error "odd-length hex string"
  else
    match
      Bytes.init (length / 2) (fun i ->
          Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
    with
    | bytes -> Ok bytes
    | exception _ -> Error "malformed hex string"

let event_to_string = function
  | Packet_received message -> "pkt:" ^ hex_of_bytes (Header.encode message)
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
    match bytes_of_hex (String.sub s 4 (String.length s - 4)) with
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
  | Send message -> "send:" ^ hex_of_bytes (Header.encode message)
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
          { ts_id = i; block; serviced_round = 0; budget = c.h })
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
      [ Send (Header.Poll { tg_id = tg.ts_id; k = tg_k tg; size; round }) ]
    | Some (J_exhausted { tg }) -> [ Send (Header.Exhausted { tg_id = tg.ts_id }) ]

  let feedback t ~tg ~need ~round =
    if tg < 0 || tg >= Array.length t.tgs then []
    else begin
      let tgs = t.tgs.(tg) in
      if tgs.serviced_round >= round then []
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

type tg_receiver = {
  rx : Fec_block.Receiver.t;
  rk : int; (* the block's own k (indices are validated against it) *)
  rn : int; (* k + h: upper bound for parity indices *)
  counted : bool; (* registered via [expected]: resolves count toward Done *)
  mutable delivered : bool;
  mutable gave_up : bool;
  mutable armed_round : int option; (* round of the pending NAK timer *)
  mutable nak_round : int; (* round the pending/last NAK belongs to *)
}

module Receiver = struct
  type t = {
    config : config;
    rand : unit -> float;
    blocks : (int, tg_receiver) Hashtbl.t;
    expected : int; (* number of counted TGs; 0 = open-ended, no Done *)
    mutable resolved_count : int;
    mutable finished : bool;
    mutable naks_sent : int;
    mutable naks_suppressed : int;
    mutable duplicates : int;
    mutable unnecessary : int;
    mutable packets_decoded : int;
  }

  let make_block config ~k ~counted =
    let codec = Codec.of_kind config.codec in
    {
      rx = Fec_block.Receiver.create ~codec ~k ~h:config.h;
      rk = k;
      rn = k + config.h;
      counted;
      delivered = false;
      gave_up = false;
      armed_round = None;
      nak_round = 0;
    }

  let create ?(expected = []) config ~rand =
    validate_config config;
    let t =
      {
        config;
        rand;
        blocks = Hashtbl.create 16;
        expected = List.length expected;
        resolved_count = 0;
        finished = false;
        naks_sent = 0;
        naks_suppressed = 0;
        duplicates = 0;
        unnecessary = 0;
        packets_decoded = 0;
      }
    in
    List.iter
      (fun (tg_id, k) ->
        if k < 1 then invalid_arg "Np_machine.Receiver.create: expected k < 1";
        Hashtbl.replace t.blocks tg_id (make_block config ~k ~counted:true))
      expected;
    t

  let find_or_create t ~tg_id ~k =
    match Hashtbl.find_opt t.blocks tg_id with
    | Some block -> block
    | None ->
      let block = make_block t.config ~k:(max 1 k) ~counted:false in
      Hashtbl.replace t.blocks tg_id block;
      block

  (* A counted TG just resolved (delivered or gave up): emit Done once the
     whole expected set has. *)
  let resolve t block =
    if block.counted then begin
      t.resolved_count <- t.resolved_count + 1;
      if t.expected > 0 && t.resolved_count = t.expected && not t.finished then begin
        t.finished <- true;
        [ Done ]
      end
      else []
    end
    else []

  let store t ~tg_id ~k ~index payload =
    let block = find_or_create t ~tg_id ~k in
    if block.delivered || block.gave_up then begin
      t.unnecessary <- t.unnecessary + 1;
      []
    end
    else if index < 0 || index >= block.rn then [] (* malformed: out of codec range *)
    else if not (Fec_block.Receiver.add block.rx ~index payload) then begin
      t.unnecessary <- t.unnecessary + 1;
      t.duplicates <- t.duplicates + 1;
      []
    end
    else if Fec_block.Receiver.complete block.rx then begin
      let reconstructed = List.length (Fec_block.Receiver.missing_data block.rx) in
      t.packets_decoded <- t.packets_decoded + reconstructed;
      let decoded = Fec_block.Receiver.decode block.rx in
      block.delivered <- true;
      let cancel =
        match block.armed_round with
        | Some _ ->
          block.armed_round <- None;
          [ Cancel_timer { tg = tg_id } ]
        | None -> []
      in
      (Deliver { tg = tg_id; data = decoded; reconstructed } :: cancel) @ resolve t block
    end
    else []

  let poll t ~tg_id ~k ~size ~round =
    let block = find_or_create t ~tg_id ~k in
    if (not block.delivered) && (not block.gave_up) && block.nak_round < round then begin
      let need = Fec_block.Receiver.needed block.rx in
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
    end
    else []

  let timer_fired t ~tg ~round =
    match Hashtbl.find_opt t.blocks tg with
    | None -> []
    | Some block ->
      (match block.armed_round with
      | Some armed when armed = round ->
        block.armed_round <- None;
        if block.delivered || block.gave_up then []
        else begin
          let need = Fec_block.Receiver.needed block.rx in
          if need > 0 then begin
            t.naks_sent <- t.naks_sent + 1;
            block.nak_round <- round;
            [ Send (Header.Nak { tg_id = tg; need; round }) ]
          end
          else []
        end
      | Some _ | None -> [] (* stale fire: the timer was re-armed or resolved *))

  let overhear t ~tg_id ~need ~round =
    match Hashtbl.find_opt t.blocks tg_id with
    | None -> []
    | Some block ->
      (match block.armed_round with
      | Some _ when block.nak_round < round ->
        (* Pending timer belongs to this round iff scheduled by its poll;
           suppression applies when the overheard request covers ours. *)
        if need >= Fec_block.Receiver.needed block.rx then begin
          block.armed_round <- None;
          block.nak_round <- round;
          t.naks_suppressed <- t.naks_suppressed + 1;
          [ Cancel_timer { tg = tg_id } ]
        end
        else []
      | Some _ | None -> [])

  let exhausted t ~tg_id =
    match Hashtbl.find_opt t.blocks tg_id with
    | None -> []
    | Some block ->
      if block.delivered || block.gave_up then []
      else begin
        block.gave_up <- true;
        let cancel =
          match block.armed_round with
          | Some _ ->
            block.armed_round <- None;
            [ Cancel_timer { tg = tg_id } ]
          | None -> []
        in
        cancel @ (Ejected { tg = tg_id } :: resolve t block)
      end

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
      | Packet_received (Header.Data { tg_id; k; index; payload }) ->
        store t ~tg_id ~k ~index payload
      | Packet_received (Header.Parity { tg_id; k; index; round = _; payload }) ->
        let block_k =
          match Hashtbl.find_opt t.blocks tg_id with Some b -> b.rk | None -> k
        in
        store t ~tg_id ~k ~index:(block_k + index) payload
      | Packet_received (Header.Poll { tg_id; k; size; round }) ->
        poll t ~tg_id ~k ~size ~round
      | Packet_received (Header.Nak { tg_id; need; round }) -> overhear t ~tg_id ~need ~round
      | Packet_received (Header.Exhausted { tg_id }) -> exhausted t ~tg_id
      | Timer_fired { tg; round } -> timer_fired t ~tg ~round
      | Feedback _ | Retune _ | Tick -> []

  let resolved t = t.resolved_count
  let finished t = t.finished

  let delivered t ~tg =
    match Hashtbl.find_opt t.blocks tg with Some b -> b.delivered | None -> false

  let gave_up t ~tg =
    match Hashtbl.find_opt t.blocks tg with Some b -> b.gave_up | None -> false

  let timer_armed t ~tg =
    match Hashtbl.find_opt t.blocks tg with Some b -> b.armed_round <> None | None -> false

  let naks_sent t = t.naks_sent
  let naks_suppressed t = t.naks_suppressed
  let duplicates t = t.duplicates
  let unnecessary t = t.unnecessary
  let packets_decoded t = t.packets_decoded
end
